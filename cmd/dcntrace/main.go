// Command dcntrace runs a small DCN deployment with event tracing enabled
// and writes the packet/threshold event log as CSV — the tool to reach for
// when MAC-level behaviour needs inspecting rather than aggregating.
//
// Usage:
//
//	dcntrace                        # trace to stdout
//	dcntrace -o trace.csv -run 2s   # trace a 2 s run to a file
//	dcntrace -scenario my.json      # trace a custom scenario's networks
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
	"nonortho/internal/trace"
)

// lossBoundDB is the snapshot's near-field loss bound, the one the
// experiment drivers use: ~820 m under the default model, so every pair of
// a colocated deployment is stored.
const lossBoundDB = 150

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcntrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcntrace", flag.ContinueOnError)
	var (
		out      = fs.String("o", "", "output CSV path (default stdout)")
		seed     = fs.Int64("seed", 1, "random seed")
		duration = fs.Duration("run", 2*time.Second, "virtual run time after the 2 s warmup")
		capacity = fs.Int("buffer", 200000, "trace ring-buffer capacity")
		networks = fs.Int("networks", 2, "adjacent CFD=3 networks to simulate")
		scheme   = fs.String("scheme", "dcn", "channel-access scheme: fixed, dcn or no-cs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var s testbed.Scheme
	switch *scheme {
	case "fixed":
		s = testbed.SchemeFixed
	case "dcn":
		s = testbed.SchemeDCN
	case "no-cs":
		s = testbed.SchemeNoCarrierSense
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}

	centers := make([]phy.MHz, *networks)
	for i := range centers {
		centers[i] = 2458 + phy.MHz(3*i)
	}
	rng := sim.NewRNG(*seed)
	snap, err := topology.NewSnapshotNear(topology.Config{
		Plan:   phy.ChannelPlan{Centers: centers, CFD: 3},
		Layout: topology.LayoutColocated,
	}, rng, nil, lossBoundDB)
	if err != nil {
		return err
	}
	tb := testbed.New(testbed.Options{Seed: *seed, Topology: snap})
	rec := tb.EnableTrace(*capacity)
	for _, spec := range snap.Networks() {
		tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: s})
	}
	tb.Run(2*time.Second, *duration)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteCSV(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dcntrace: %d events (%d evicted)\n", rec.Len(), rec.Dropped())
	counts := rec.Counts()
	for _, k := range []trace.Kind{trace.KindTxEnd, trace.KindRxOK, trace.KindRxCorrupt, trace.KindDrop, trace.KindThreshold} {
		if counts[k] > 0 {
			fmt.Fprintf(os.Stderr, "  %-10s %d\n", k, counts[k])
		}
	}
	return nil
}
