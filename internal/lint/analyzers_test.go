package lint_test

import (
	"testing"

	"nonortho/internal/lint"
	"nonortho/internal/lint/linttest"
)

// Each analyzer runs over its golden fixture packages under
// testdata/src: every `// want "re"` comment must be matched by a
// diagnostic on that line, and any unmatched diagnostic fails — so the
// fixtures' clean declarations double as negative cases.

func TestDetsource(t *testing.T) {
	linttest.Run(t, lint.Detsource, "internal/detsrc", "cmdtool",
		"internal/watchdog", "internal/store")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, lint.Maporder, "mapord")
}

func TestDbmunits(t *testing.T) {
	linttest.Run(t, lint.Dbmunits, "dbmunits")
}

func TestConfinedgo(t *testing.T) {
	linttest.Run(t, lint.Confinedgo, "internal/confgo", "internal/parallel",
		"internal/watchdog", "internal/store")
}

func TestSeedtaint(t *testing.T) {
	linttest.Run(t, lint.Seedtaint, "internal/seedt", "internal/sim")
}

func TestDetsourceInterprocedural(t *testing.T) {
	linttest.Run(t, lint.Detsource, "internal/deepdet", "dethelp")
}

func TestSeedtaintInterprocedural(t *testing.T) {
	linttest.Run(t, lint.Seedtaint, "internal/deepseed", "seedhelp")
}

func TestDbmunitsSummaries(t *testing.T) {
	linttest.Run(t, lint.Dbmunits, "dbmhelp")
}

func TestSnapfreeze(t *testing.T) {
	linttest.Run(t, lint.Snapfreeze, "snapuse", "internal/topology")
}

// TestRegistryComplete pins the registry: adding or renaming an
// analyzer must update this list (and the README table it mirrors).
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"confinedgo", "dbmunits", "detsource", "maporder",
		"seedtaint", "snapfreeze",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d].Name = %q, want %q", i, all[i].Name, name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want the registered analyzer", a.Name, got)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) != nil")
	}
}
