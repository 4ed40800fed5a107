package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestValidateDefs(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatalf("the registry itself is invalid: %v", err)
	}
	ok := metricDef{Name: "a.b_c-1", Unit: "ms", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		name string
		e2e  []metricDef
		want string
	}{
		{"leading punctuation", []metricDef{{Name: ".x", Unit: "s", Better: "lower", Bound: 0.1}}, "malformed name"},
		{"space", []metricDef{{Name: "a b", Unit: "s", Better: "lower", Bound: 0.1}}, "malformed name"},
		{"too long", []metricDef{{Name: strings.Repeat("x", 65), Unit: "s", Better: "lower", Bound: 0.1}}, "malformed name"},
		{"duplicate", []metricDef{ok, ok}, "declared twice"},
		{"unit", []metricDef{{Name: "x", Unit: "milliseconds/call", Better: "lower", Bound: 0.1}}, "malformed unit"},
		{"unit chars", []metricDef{{Name: "x", Unit: "m s", Better: "lower", Bound: 0.1}}, "malformed unit"},
		{"direction", []metricDef{{Name: "x", Unit: "s", Better: "faster", Bound: 0.1}}, "neither higher nor lower"},
		{"bound", []metricDef{{Name: "x", Unit: "s", Better: "lower", Bound: 0.3}}, "outside (0, 0.25]"},
		{"no bound", []metricDef{{Name: "x", Unit: "s", Better: "lower"}}, "outside (0, 0.25]"},
	} {
		err := validateDefs(c.e2e, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validateDefs = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// Per-layer metrics carry no bound.
	if err := validateDefs(nil, []metricDef{{Name: "x", Unit: "count", Better: "higher"}}); err != nil {
		t.Errorf("per-layer metric without bound rejected: %v", err)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps the repository's BENCHMARK.json
// and the metrics this command reports in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		RunSecs   int      `json:"run_seconds"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, registry %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, registry %s/%s/%s", kind, i,
					g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if (g.Bound != nil) != (kind == "end_to_end") || (g.Bound != nil && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the registry's %g", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSlicesHoldWholeSamples(t *testing.T) {
	for name, w := range map[string]cellWorkload{"paper-dcn": paperDCN, "city-1k": city1k} {
		if w.slice%sampleEvery != 0 {
			t.Errorf("%s: slice %v is not a multiple of the sampling step %v", name, w.slice, sampleEvery)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-dcn", "--trace", "2"},
		{"--workload", "paper-dcn", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want exit 2 and no result", args, code, out.String())
		}
	}
}
