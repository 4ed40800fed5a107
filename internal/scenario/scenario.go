// Package scenario loads experiment descriptions from JSON, so a
// downstream user can define custom deployments — node positions, powers,
// channels, schemes, traffic — without writing Go. The schema maps 1:1
// onto the testbed API.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"nonortho/internal/dcn"
	"nonortho/internal/net80211"
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// Node is one mote in the scenario file.
type Node struct {
	// X and Y are the position in meters.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// PowerDBm is the transmit power (0 is a valid setting: CC2420 max).
	PowerDBm float64 `json:"powerDBm"`
}

// Network is one channel's worth of nodes.
type Network struct {
	// Name labels the network in reports (optional).
	Name string `json:"name,omitempty"`
	// FreqMHz is the channel center frequency.
	FreqMHz float64 `json:"freqMHz"`
	// Scheme is "fixed" (default), "dcn", "no-cs" or "oracle".
	Scheme string `json:"scheme,omitempty"`
	// CCAThresholdDBm overrides the -77 dBm default for fixed CCA.
	CCAThresholdDBm float64 `json:"ccaThresholdDBm,omitempty"`
	// PayloadBytes overrides the default MSDU size.
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// PeriodMillis spaces transmissions; 0 means saturated traffic.
	PeriodMillis int `json:"periodMillis,omitempty"`
	// Sink receives; Senders transmit to it.
	Sink    Node   `json:"sink"`
	Senders []Node `json:"senders"`
}

// Scenario is the root document.
type Scenario struct {
	// Name labels the scenario.
	Name string `json:"name"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// WarmupMillis and MeasureMillis bound the run (defaults 3000/8000).
	WarmupMillis  int `json:"warmupMillis,omitempty"`
	MeasureMillis int `json:"measureMillis,omitempty"`
	// PayloadBytes is the default MSDU size (default 64).
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// FadingSigmaDB and StaticFadingSigmaDB override the channel model
	// (defaults 2 and 3; -1 disables).
	FadingSigmaDB       float64 `json:"fadingSigmaDB,omitempty"`
	StaticFadingSigmaDB float64 `json:"staticFadingSigmaDB,omitempty"`
	// Networks to instantiate.
	Networks []Network `json:"networks"`
	// WiFi optionally adds bursty 802.11 interferers over the band.
	WiFi []WiFiInterferer `json:"wifi,omitempty"`
}

// WiFiInterferer describes a wideband 802.11 cell for coexistence
// scenarios.
type WiFiInterferer struct {
	// Channel is the 802.11b channel number (1-11).
	Channel int `json:"channel"`
	// X, Y position the access point.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// PowerDBm is the transmit power (default 15).
	PowerDBm float64 `json:"powerDBm,omitempty"`
	// BusyMillis and IdleMillis shape the duty cycle (defaults 20/20).
	BusyMillis int `json:"busyMillis,omitempty"`
	IdleMillis int `json:"idleMillis,omitempty"`
}

// Load parses a scenario document.
func Load(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses a scenario from disk.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Validate checks the document for structural errors.
func (s *Scenario) Validate() error {
	if len(s.Networks) == 0 {
		return fmt.Errorf("scenario %q: no networks", s.Name)
	}
	if s.WarmupMillis < 0 || s.MeasureMillis < 0 {
		return fmt.Errorf("scenario %q: negative warmup or measure duration", s.Name)
	}
	if s.PayloadBytes < 0 || s.PayloadBytes > 116 {
		return fmt.Errorf("scenario %q: payload %d outside 0..116", s.Name, s.PayloadBytes)
	}
	for i, w := range s.WiFi {
		if w.Channel < 1 || w.Channel > 11 {
			return fmt.Errorf("scenario %q: wifi %d: channel %d outside 1..11",
				s.Name, i, w.Channel)
		}
		if w.BusyMillis < 0 || w.IdleMillis < 0 {
			return fmt.Errorf("scenario %q: wifi %d: negative duty period", s.Name, i)
		}
	}
	for i, n := range s.Networks {
		if n.FreqMHz < 2400 || n.FreqMHz > 2500 {
			return fmt.Errorf("scenario %q: network %d: freqMHz %v outside the 2.4 GHz band",
				s.Name, i, n.FreqMHz)
		}
		if len(n.Senders) == 0 {
			return fmt.Errorf("scenario %q: network %d: no senders", s.Name, i)
		}
		switch n.Scheme {
		case "", "fixed", "dcn", "no-cs", "oracle":
		default:
			return fmt.Errorf("scenario %q: network %d: unknown scheme %q",
				s.Name, i, n.Scheme)
		}
		if n.PeriodMillis < 0 {
			return fmt.Errorf("scenario %q: network %d: negative period", s.Name, i)
		}
		if n.PayloadBytes < 0 || n.PayloadBytes > 116 {
			return fmt.Errorf("scenario %q: network %d: payload %d outside 0..116",
				s.Name, i, n.PayloadBytes)
		}
	}
	return nil
}

// Result reports one network's measured outcome.
type Result struct {
	Name       string
	FreqMHz    float64
	Throughput float64
	PRR        float64
	Sent       int
	Received   int
}

// Run builds the testbed, executes the scenario, and reports per-network
// results plus the overall throughput.
func (s *Scenario) Run() ([]Result, float64, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	warmup := time.Duration(s.WarmupMillis) * time.Millisecond
	if s.WarmupMillis == 0 {
		warmup = 3 * time.Second
	}
	measure := time.Duration(s.MeasureMillis) * time.Millisecond
	if s.MeasureMillis == 0 {
		measure = 8 * time.Second
	}

	tb := testbed.New(testbed.Options{
		Seed:              seed,
		Payload:           s.PayloadBytes,
		FadingSigma:       s.FadingSigmaDB,
		StaticFadingSigma: s.StaticFadingSigmaDB,
	})
	var networks []*testbed.Network
	for _, n := range s.Networks {
		spec := topology.NetworkSpec{
			Freq: phy.MHz(n.FreqMHz),
			Sink: topology.NodeSpec{
				Pos:     phy.Position{X: n.Sink.X, Y: n.Sink.Y},
				TxPower: phy.DBm(n.Sink.PowerDBm),
			},
		}
		for _, nd := range n.Senders {
			spec.Senders = append(spec.Senders, topology.NodeSpec{
				Pos:     phy.Position{X: nd.X, Y: nd.Y},
				TxPower: phy.DBm(nd.PowerDBm),
			})
		}
		cfg := testbed.NetworkConfig{
			CCAThreshold: phy.DBm(n.CCAThresholdDBm),
			Payload:      n.PayloadBytes,
			Period:       time.Duration(n.PeriodMillis) * time.Millisecond,
			DCN:          dcn.Config{},
		}
		switch n.Scheme {
		case "dcn":
			cfg.Scheme = testbed.SchemeDCN
		case "no-cs":
			cfg.Scheme = testbed.SchemeNoCarrierSense
		case "oracle":
			cfg.Scheme = testbed.SchemeOracle
		default:
			cfg.Scheme = testbed.SchemeFixed
		}
		networks = append(networks, tb.AddNetwork(spec, cfg))
	}
	for _, w := range s.WiFi {
		power := phy.DBm(w.PowerDBm)
		if w.PowerDBm == 0 {
			power = 15
		}
		intf := net80211.NewInterferer(tb.Kernel, tb.Medium,
			phy.Position{X: w.X, Y: w.Y}, w.Channel, power)
		if w.BusyMillis > 0 {
			intf.BusyTime = time.Duration(w.BusyMillis) * time.Millisecond
		}
		if w.IdleMillis > 0 {
			intf.IdleTime = time.Duration(w.IdleMillis) * time.Millisecond
		}
		intf.Start()
	}

	tb.Run(warmup, measure)

	results := make([]Result, len(networks))
	for i, n := range networks {
		name := s.Networks[i].Name
		if name == "" {
			name = testbed.NetworkLabel(i)
		}
		st := n.Stats()
		results[i] = Result{
			Name:       name,
			FreqMHz:    float64(n.Freq),
			Throughput: n.Throughput(tb.MeasuredDuration()),
			PRR:        st.PRR(),
			Sent:       st.Sent,
			Received:   st.Received,
		}
	}
	return results, tb.OverallThroughput(), nil
}
