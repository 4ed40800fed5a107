// Package linttest is the golden-file test harness for the dcnlint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone. A fixture package lives under
// testdata/src/<path>; every line expected to trigger a diagnostic
// carries a trailing comment:
//
//	total += v // want "floating-point accumulation"
//
// The quoted string is a regular expression matched against the
// diagnostic message; several "want" strings on one line expect several
// diagnostics. Any diagnostic without a matching want, and any want
// without a matching diagnostic, fails the test — so clean declarations
// in a fixture double as negative cases. Suppression directives
// (//lint:ignore) are honoured before matching, letting fixtures assert
// the suppression convention itself.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"nonortho/internal/lint"
)

var wantRe = regexp.MustCompile(`// want (.*)$`)

// Run loads the fixture packages under testdata/src in one shared
// module — so the interprocedural analyzers see helper packages' code,
// exactly as a whole-module dcnlint run does — and checks the
// analyzer's diagnostics against the fixtures' want comments.
func Run(t *testing.T, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]string, len(pkgPaths))
	for i, path := range pkgPaths {
		patterns[i] = "./" + path
	}
	loader := lint.NewLoader(root, "")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgPaths, err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %v: %v", a.Name, pkgPaths, err)
	}
	checkWants(t, pkgs, diags)
}

// wantKey addresses one fixture line.
type wantKey struct {
	file string
	line int
}

func checkWants(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectWants(t, pkg.Fset, f, wants)
		}
	}
	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		if i := matchWant(wants[key], d.Message); i >= 0 {
			wants[key] = append(wants[key][:i], wants[key][i+1:]...)
			if len(wants[key]) == 0 {
				delete(wants, key)
			}
			continue
		}
		t.Errorf("unexpected diagnostic at %s: %s (%s)", d.Pos, d.Message, d.Analyzer)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, re)
		}
	}
}

func matchWant(res []*regexp.Regexp, msg string) int {
	for i, re := range res {
		if re.MatchString(msg) {
			return i
		}
	}
	return -1
}

// collectWants parses the `// want "re" ["re" ...]` comments of a file.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, wants map[wantKey][]*regexp.Regexp) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			key := wantKey{pos.Filename, pos.Line}
			for _, lit := range splitQuoted(m[1]) {
				pat, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
}

// splitQuoted extracts the double-quoted Go string literals of a want
// payload: `"a" "b"` -> ["a" quoted, "b" quoted].
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		rest := s[start:]
		// Find the closing quote, honouring backslash escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return out
		}
		out = append(out, rest[:end+1])
		s = rest[end+1:]
	}
}
