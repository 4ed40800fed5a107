package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The golden manifest pins the exact rendered bytes of the experiment
// tables the worker-invariance suites already compute at Workers=1: one
// sha256 per table, committed under testdata/golden. Worker invariance
// alone cannot catch a change that shifts every worker count identically;
// the manifest can. A deliberate model change re-blesses it with
//
//	go test ./internal/experiments -run 'WorkerInvarian|WorkerCountInvariant' -update
//
// and the manifest diff is reviewed with the change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/manifest.txt from this run's Workers=1 tables")

const goldenManifestPath = "testdata/golden/manifest.txt"

// goldenMu serialises manifest reads and rewrites across the tests that
// record into it.
var goldenMu sync.Mutex

// checkGolden compares the sha256 of a rendered table against the
// manifest entry key, or records it under -update. The manifest is bound
// to the GOARCH it was recorded on: the Go compiler may fuse a
// multiply-add into one FMA instruction on some architectures (arm64,
// ppc64le, s390x), which rounds once instead of twice and legitimately
// moves the last bits of a float sum. On any other GOARCH the check skips.
func checkGolden(t *testing.T, key, rendered string) {
	t.Helper()
	sum := sha256.Sum256([]byte(rendered))
	got := hex.EncodeToString(sum[:])
	goldenMu.Lock()
	defer goldenMu.Unlock()
	arch, entries, err := readGoldenManifest()
	if *updateGolden {
		if err != nil && !os.IsNotExist(err) {
			t.Fatalf("golden manifest: %v", err)
		}
		if arch != runtime.GOARCH {
			entries = map[string]string{} // hashes from another arch are meaningless here
		}
		entries[key] = got
		if err := writeGoldenManifest(entries); err != nil {
			t.Fatalf("golden manifest: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("golden manifest: %v (record it with -update)", err)
	}
	if arch != runtime.GOARCH {
		t.Skipf("golden manifest recorded on GOARCH=%s, running on %s: Go may fuse "+
			"multiply-adds into FMA instructions on some architectures, which changes "+
			"float bits, so hashes are compared only on the recording arch",
			arch, runtime.GOARCH)
	}
	want, ok := entries[key]
	if !ok {
		t.Fatalf("golden manifest has no entry %q (record it with -update)", key)
	}
	if got != want {
		t.Errorf("%s: rendered table sha256 %s, manifest has %s — output changed; if deliberate, re-bless with -update and review the diff\n%s",
			key, got, want, rendered)
	}
}

// readGoldenManifest parses the manifest: a "goarch <arch>" header line,
// then "<sha256>  <key>" lines.
func readGoldenManifest() (arch string, entries map[string]string, err error) {
	entries = map[string]string{}
	f, err := os.Open(goldenManifestPath)
	if err != nil {
		return "", entries, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if line == 1 {
			if _, err := fmt.Sscanf(text, "goarch %s", &arch); err != nil {
				return "", entries, fmt.Errorf("%s:1: want a \"goarch <arch>\" header, got %q", goldenManifestPath, text)
			}
			continue
		}
		sum, key, ok := strings.Cut(text, "  ")
		if !ok || len(sum) != sha256.Size*2 || key == "" {
			return "", entries, fmt.Errorf("%s:%d: malformed entry %q", goldenManifestPath, line, text)
		}
		entries[key] = sum
	}
	return arch, entries, sc.Err()
}

// writeGoldenManifest rewrites the manifest with entries sorted by key.
func writeGoldenManifest(entries map[string]string) error {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "goarch %s\n", runtime.GOARCH)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s  %s\n", entries[k], k)
	}
	if err := os.MkdirAll(filepath.Dir(goldenManifestPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenManifestPath, []byte(b.String()), 0o644)
}
