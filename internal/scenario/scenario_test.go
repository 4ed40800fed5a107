package scenario

import (
	"strings"
	"testing"
)

const validDoc = `{
  "name": "two-links",
  "seed": 5,
  "warmupMillis": 500,
  "measureMillis": 2000,
  "networks": [
    {
      "name": "left",
      "freqMHz": 2460,
      "scheme": "fixed",
      "sink": {"x": 1, "y": 0},
      "senders": [{"x": 0, "y": 0, "powerDBm": 0}]
    },
    {
      "name": "right",
      "freqMHz": 2463,
      "scheme": "dcn",
      "sink": {"x": 1, "y": 2},
      "senders": [{"x": 0, "y": 2, "powerDBm": -5}]
    }
  ]
}`

// Top-level fields that Validate once let through: a negative default
// payload panicked in Run, the others ran with nonsense settings.
const (
	negativePayloadDoc  = `{"name":"x","payloadBytes":-3,"networks":[{"freqMHz":2460,"sink":{},"senders":[{}]}]}`
	oversizedPayloadDoc = `{"name":"x","payloadBytes":200,"networks":[{"freqMHz":2460,"sink":{},"senders":[{}]}]}`
	negativeMeasureDoc  = `{"name":"x","measureMillis":-500,"networks":[{"freqMHz":2460,"sink":{},"senders":[{}]}]}`
	negativeWarmupDoc   = `{"name":"x","warmupMillis":-100,"networks":[{"freqMHz":2460,"sink":{},"senders":[{}]}]}`
)

func TestLoadValid(t *testing.T) {
	s, err := Load(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "two-links" || len(s.Networks) != 2 {
		t.Fatalf("parsed = %+v", s)
	}
	if s.Networks[1].Scheme != "dcn" || s.Networks[1].Senders[0].PowerDBm != -5 {
		t.Errorf("network 1 = %+v", s.Networks[1])
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	doc := `{"name":"x","bogus":1,"networks":[{"freqMHz":2460,"sink":{},"senders":[{}]}]}`
	if _, err := Load(strings.NewReader(doc)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"no networks", `{"name":"x","networks":[]}`},
		{"bad freq", `{"name":"x","networks":[{"freqMHz":5000,"sink":{},"senders":[{}]}]}`},
		{"no senders", `{"name":"x","networks":[{"freqMHz":2460,"sink":{},"senders":[]}]}`},
		{"bad scheme", `{"name":"x","networks":[{"freqMHz":2460,"scheme":"tdma","sink":{},"senders":[{}]}]}`},
		{"negative period", `{"name":"x","networks":[{"freqMHz":2460,"periodMillis":-1,"sink":{},"senders":[{}]}]}`},
		{"huge payload", `{"name":"x","networks":[{"freqMHz":2460,"payloadBytes":500,"sink":{},"senders":[{}]}]}`},
		{"negative default payload", negativePayloadDoc},
		{"oversized default payload", oversizedPayloadDoc},
		{"negative measure", negativeMeasureDoc},
		{"negative warmup", negativeWarmupDoc},
		{"not json", `{`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.doc)); err == nil {
				t.Errorf("%s accepted", tt.name)
			}
		})
	}
}

func TestRunScenario(t *testing.T) {
	s, err := Load(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	results, overall, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if results[0].Name != "left" || results[1].Name != "right" {
		t.Errorf("names = %v/%v", results[0].Name, results[1].Name)
	}
	var sum float64
	for _, r := range results {
		if r.Throughput <= 0 || r.Sent == 0 || r.Received == 0 {
			t.Errorf("network %s carried no traffic: %+v", r.Name, r)
		}
		if r.PRR <= 0 || r.PRR > 1 {
			t.Errorf("network %s PRR = %v", r.Name, r.PRR)
		}
		sum += r.Throughput
	}
	if overall != sum {
		t.Errorf("overall %v != sum %v", overall, sum)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() float64 {
		s, err := Load(strings.NewReader(validDoc))
		if err != nil {
			t.Fatal(err)
		}
		_, overall, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return overall
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same scenario diverged: %v vs %v", a, b)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDefaultNetworkNames(t *testing.T) {
	doc := `{"name":"x","measureMillis":500,"warmupMillis":100,"networks":[
	  {"freqMHz":2460,"sink":{"x":1},"senders":[{"x":0}]}]}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Name != "N0" {
		t.Errorf("default name = %q, want N0", results[0].Name)
	}
}

func TestScenarioWiFiInterferer(t *testing.T) {
	doc := `{
	  "name": "wifi",
	  "warmupMillis": 500,
	  "measureMillis": 2000,
	  "wifi": [{"channel": 11, "x": 5, "y": 5, "powerDBm": 15}],
	  "networks": [
	    {"name": "n", "freqMHz": 2462,
	     "sink": {"x": 1}, "senders": [{"x": 0}]}
	  ]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	withWiFi, _, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The same network without the interferer delivers more.
	s.WiFi = nil
	clean, _, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if withWiFi[0].Throughput >= clean[0].Throughput {
		t.Errorf("Wi-Fi did not hurt: %v vs clean %v",
			withWiFi[0].Throughput, clean[0].Throughput)
	}
}

func TestScenarioWiFiValidation(t *testing.T) {
	bad := `{"name":"x","wifi":[{"channel":13}],"networks":[
	  {"freqMHz":2460,"sink":{},"senders":[{}]}]}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("wifi channel 13 accepted")
	}
	neg := `{"name":"x","wifi":[{"channel":6,"busyMillis":-1}],"networks":[
	  {"freqMHz":2460,"sink":{},"senders":[{}]}]}`
	if _, err := Load(strings.NewReader(neg)); err == nil {
		t.Error("negative duty accepted")
	}
}

func TestScenarioOracleScheme(t *testing.T) {
	doc := `{"name":"o","warmupMillis":200,"measureMillis":500,"networks":[
	  {"freqMHz":2460,"scheme":"oracle","sink":{"x":1},"senders":[{"x":0}]}]}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Received == 0 {
		t.Error("oracle scheme carried no traffic")
	}
}

// FuzzLoad feeds arbitrary documents to Load (never Run): decoding and
// validation must not panic, and every accepted document must carry
// non-negative durations and payloads the frame codec can carry.
func FuzzLoad(f *testing.F) {
	for _, doc := range []string{
		validDoc, negativePayloadDoc, oversizedPayloadDoc,
		negativeMeasureDoc, negativeWarmupDoc,
		`{"name":"x","wifi":[{"channel":6,"busyMillis":-1}],"networks":[{"freqMHz":2460,"sink":{},"senders":[{}]}]}`,
		`{`,
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := Load(strings.NewReader(doc))
		if err != nil {
			return
		}
		if s.WarmupMillis < 0 || s.MeasureMillis < 0 {
			t.Fatalf("accepted negative duration: warmup %d, measure %d", s.WarmupMillis, s.MeasureMillis)
		}
		if s.PayloadBytes < 0 || s.PayloadBytes > 116 {
			t.Fatalf("accepted default payload %d", s.PayloadBytes)
		}
		for i, n := range s.Networks {
			if n.PeriodMillis < 0 || n.PayloadBytes < 0 || n.PayloadBytes > 116 {
				t.Fatalf("network %d accepted with period %d, payload %d", i, n.PeriodMillis, n.PayloadBytes)
			}
		}
		for i, w := range s.WiFi {
			if w.BusyMillis < 0 || w.IdleMillis < 0 {
				t.Fatalf("wifi %d accepted with busy %d, idle %d", i, w.BusyMillis, w.IdleMillis)
			}
		}
	})
}
