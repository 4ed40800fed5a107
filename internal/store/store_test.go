package store

import (
	"bytes"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTest(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), WithVersion("test-v1"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cellValue mirrors a typical driver cell result: float slices whose
// bits must survive the round trip exactly.
type cellValue struct {
	Per   []float64
	Total float64
	Sent  int
}

func key(cell int) Key {
	return Key{Experiment: "fig19", Sweep: 0, Cell: cell, Config: "n=6 seeds=3 seed=1 warmup=3s measure=8s"}
}

func TestRoundTripBitExact(t *testing.T) {
	s := openTest(t)
	// Values chosen to catch any float formatting/precision slip: a
	// subnormal, an exactly-representable sum, Pi, a negative zero.
	in := cellValue{
		Per:   []float64{math.Pi, 1e-310, 0.1 + 0.2, math.Copysign(0, -1)},
		Total: 290.0000000000001,
		Sent:  4242,
	}
	if err := Put(s, key(3), in); err != nil {
		t.Fatal(err)
	}
	out, ok := Get[cellValue](s, key(3))
	if !ok {
		t.Fatal("stored entry not found")
	}
	if len(out.Per) != len(in.Per) {
		t.Fatalf("Per length %d, want %d", len(out.Per), len(in.Per))
	}
	for i := range in.Per {
		if math.Float64bits(out.Per[i]) != math.Float64bits(in.Per[i]) {
			t.Fatalf("Per[%d] bits differ: %x vs %x", i, math.Float64bits(out.Per[i]), math.Float64bits(in.Per[i]))
		}
	}
	if math.Float64bits(out.Total) != math.Float64bits(in.Total) || out.Sent != in.Sent {
		t.Fatalf("round trip mutated value: %+v vs %+v", out, in)
	}
}

func TestMissOnAbsentAndKeyIsolation(t *testing.T) {
	s := openTest(t)
	if _, ok := Get[cellValue](s, key(0)); ok {
		t.Fatal("hit on empty store")
	}
	if err := Put(s, key(0), cellValue{Total: 1}); err != nil {
		t.Fatal(err)
	}
	// Every key field must isolate entries.
	variants := []Key{
		{Experiment: "fig20", Sweep: 0, Cell: 0, Config: key(0).Config},
		{Experiment: "fig19", Sweep: 1, Cell: 0, Config: key(0).Config},
		{Experiment: "fig19", Sweep: 0, Cell: 1, Config: key(0).Config},
		{Experiment: "fig19", Sweep: 0, Cell: 0, Config: "n=6 seeds=5 seed=1 warmup=3s measure=8s"},
	}
	for _, k := range variants {
		if _, ok := Get[cellValue](s, k); ok {
			t.Fatalf("key %+v aliased another entry", k)
		}
	}
}

// entryPath returns the single .cell file in the store.
func entryPath(t *testing.T, s *Store) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "*.cell"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry, got %v (%v)", matches, err)
	}
	return matches[0]
}

// corrupt applies mutate to the entry file's bytes.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Corrupted entries — truncated anywhere, bit-flipped anywhere — are
// detected, discarded from disk, and reported as misses so the caller
// recomputes. Recomputing then heals the store.
func TestCorruptionDetectedDiscardedRecomputed(t *testing.T) {
	val := cellValue{Per: []float64{1, 2, 3}, Total: 6}
	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated to half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated magic", func(b []byte) []byte { return b[:4] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"bit flip in payload", func(b []byte) []byte { b[len(b)-40] ^= 0x01; return b }},
		{"bit flip in header", func(b []byte) []byte { b[len(magic)+3] ^= 0x80; return b }},
		{"bit flip in checksum", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"appended garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := openTest(t)
			if err := Put(s, key(1), val); err != nil {
				t.Fatal(err)
			}
			path := entryPath(t, s)
			corrupt(t, path, m.mutate)
			if _, ok := Get[cellValue](s, key(1)); ok {
				t.Fatal("corrupted entry served")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupted entry not discarded: stat err %v", err)
			}
			// Recompute path: a fresh Put must fully heal the entry.
			if err := Put(s, key(1), val); err != nil {
				t.Fatal(err)
			}
			got, ok := Get[cellValue](s, key(1))
			if !ok || got.Total != 6 {
				t.Fatalf("store not healed after recompute: %+v ok=%v", got, ok)
			}
		})
	}
}

// An entry written by a different code version is never served: the
// version participates in the content address, so the lookup misses
// outright and the old entry is left untouched for its own version.
func TestVersionMismatchNeverServed(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, WithVersion("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Put(s1, key(2), cellValue{Total: 1}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, WithVersion("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Get[cellValue](s2, key(2)); ok {
		t.Fatal("entry from v1 served to v2")
	}
	// And the v1 entry survives for v1 readers.
	if _, ok := Get[cellValue](s1, key(2)); !ok {
		t.Fatal("v1 entry lost after v2 miss")
	}
}

// A hash-addressed file whose embedded key disagrees (simulated
// collision / tampering) is discarded even though its checksum is
// intact.
func TestEmbeddedKeyMismatchDiscarded(t *testing.T) {
	s := openTest(t)
	if err := Put(s, key(1), cellValue{Total: 1}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry wholesale under key(1)'s address but with
	// key(9)'s content (valid checksum, wrong identity).
	var buf bytes.Buffer
	buf.WriteString("payload")
	if err := s.PutBytes(key(9), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	src := s.path(key(9))
	dst := s.path(key(1))
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, defect := s.GetBytes(key(1))
	if ok {
		t.Fatal("entry with mismatched embedded key served")
	}
	if !strings.Contains(defect, "key mismatch") {
		t.Fatalf("defect = %q, want key mismatch", defect)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatal("mismatched entry not discarded")
	}
}

// Undecodable payloads (stored under one type, read as another) are
// misses, not errors, and are discarded.
func TestDecodeFailureIsMiss(t *testing.T) {
	s := openTest(t)
	if err := s.PutBytes(key(4), []byte("not gob")); err != nil {
		t.Fatal(err)
	}
	if _, ok := Get[cellValue](s, key(4)); ok {
		t.Fatal("garbage payload decoded")
	}
	if n, _ := s.Count(); n != 0 {
		t.Fatalf("undecodable entry kept: count %d", n)
	}
}

// The encodability guard refuses types gob would silently truncate.
func TestPutRefusesUnexportedFields(t *testing.T) {
	s := openTest(t)
	type sneaky struct {
		Visible float64
		hidden  float64
	}
	err := Put(s, key(5), sneaky{Visible: 1, hidden: 2})
	if err == nil || !strings.Contains(err.Error(), "hidden") {
		t.Fatalf("Put accepted a type with unexported fields: %v", err)
	}
	type nested struct{ Inner []sneaky }
	if err := Put(s, key(5), nested{}); err == nil {
		t.Fatal("Put accepted a type with nested unexported fields")
	}
	type withIface struct{ V any }
	if err := Put(s, key(5), withIface{V: 3}); err == nil {
		t.Fatal("Put accepted an interface-typed field")
	}
	// Plain values and exported-field structs pass.
	if err := Put(s, key(5), 3.14); err != nil {
		t.Fatalf("Put rejected a plain float64: %v", err)
	}
	if err := Put(s, key(6), []float64{1, 2}); err != nil {
		t.Fatalf("Put rejected a float slice: %v", err)
	}
}

func TestCountAndOverwrite(t *testing.T) {
	s := openTest(t)
	for i := 0; i < 5; i++ {
		if err := Put(s, key(i), cellValue{Total: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Count(); err != nil || n != 5 {
		t.Fatalf("Count = %d (%v), want 5", n, err)
	}
	// Overwriting a key does not grow the store.
	if err := Put(s, key(0), cellValue{Total: 99}); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != 5 {
		t.Fatalf("Count after overwrite = %d, want 5", n)
	}
	got, ok := Get[cellValue](s, key(0))
	if !ok || got.Total != 99 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestDefaultVersionNonEmpty(t *testing.T) {
	if DefaultVersion() == "" {
		t.Fatal("DefaultVersion() empty")
	}
}

// FuzzDecodeEntry feeds arbitrary entry bytes and expected keys to
// decodeEntry: it must never panic, must report a defect whenever it
// withholds a payload, and may return a payload only when the trailing
// SHA-256 matches everything before it.
func FuzzDecodeEntry(f *testing.F) {
	s, err := Open(f.TempDir(), WithVersion("fuzz-v1"))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutBytes(key(1), []byte("cell payload")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(key(1)))
	if err != nil {
		f.Fatal(err)
	}
	wantKey := key(1).canonical(s.version)
	flipped := bytes.Clone(valid)
	flipped[len(magic)+3] ^= 0x10
	f.Add(valid, wantKey)
	f.Add(valid, key(2).canonical(s.version))
	f.Add(valid[:len(valid)-1], wantKey)
	f.Add(flipped, wantKey)
	f.Add([]byte(magic), wantKey)
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, wantKey []byte) {
		payload, defect := decodeEntry(data, wantKey)
		if defect != "" {
			if payload != nil {
				t.Fatalf("payload %q returned with defect %q", payload, defect)
			}
			return
		}
		if payload == nil {
			t.Fatal("no payload and no defect")
		}
		if len(data) < sha256.Size {
			t.Fatalf("accepted a %d-byte entry, shorter than its checksum", len(data))
		}
		body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
		if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
			t.Fatal("accepted an entry whose trailing sha256 does not match")
		}
	})
}
