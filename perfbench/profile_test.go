package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// Standard-library leaves count to their module caller.
		{[]string{"math.archExp", "math.Exp", "nonortho/internal/phy.BitErrorRate", "nonortho/internal/radio.(*Radio).closeSegment"}, "phy"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "nonortho/internal/medium.(*Medium).newTransmission", "nonortho/internal/sim.(*Kernel).run"}, "medium"},
		{[]string{"nonortho/internal/radio.(*Radio).closeSegment", "nonortho/internal/medium.(*Medium).fanout"}, "radio"},
		{[]string{"nonortho/internal/testbed.(*Testbed).startSource.func3", "nonortho/internal/mac.(*MAC).completeHead"}, "testbed"},
		{[]string{"nonortho/internal/parallel.RunSweep[...].func3", "runtime.goexit"}, "parallel"},
		{[]string{"math/rand.(*rngSource).Uint64", "nonortho/internal/sim.(*RNG).Binomial"}, "sim"},
		// No module frame at all: the runtime's own work.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, runtimeLayer},
		{nil, runtimeLayer},
		// The benchmark's own code.
		{[]string{"encoding/json.Marshal", "main.report", "main.run"}, benchLayer},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// protoBuf appends protobuf fields, enough to write a synthetic profile.
type protoBuf []byte

func (p *protoBuf) varint(num int, v uint64) {
	*p = binary.AppendUvarint(*p, uint64(num)<<3)
	*p = binary.AppendUvarint(*p, v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	*p = binary.AppendUvarint(*p, uint64(num)<<3|2)
	*p = binary.AppendUvarint(*p, uint64(len(b)))
	*p = append(*p, b...)
}

func (p *protoBuf) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(num, inner)
}

func TestLayerSharesSyntheticProfile(t *testing.T) {
	var prof protoBuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Exp", "nonortho/internal/phy.BitErrorRate", "nonortho/internal/radio.(*Radio).closeSegment",
		"runtime.gcBgMarkWorker", "main.run"}
	// Functions 1..5 name strings 5..9.
	for id := uint64(1); id <= 5; id++ {
		var fn protoBuf
		fn.varint(1, id)
		fn.varint(2, id+4)
		prof.bytes(5, fn)
	}
	// Location 1 holds math.Exp inlined into phy.BitErrorRate; the
	// others hold one function each.
	for id, fns := range map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5}} {
		var loc protoBuf
		loc.varint(1, id)
		for _, fn := range fns {
			var line protoBuf
			line.varint(1, fn)
			line.varint(2, 42)
			loc.bytes(4, line)
		}
		prof.bytes(4, loc)
	}
	sample := func(locs []uint64, count, nanos uint64, packed bool) {
		var s protoBuf
		if packed {
			s.packed(1, locs...)
			s.packed(2, count, nanos)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, count)
			s.varint(2, nanos)
		}
		prof.bytes(2, s)
	}
	sample([]uint64{1, 2}, 3, 30, true) // phy, under radio
	sample([]uint64{2}, 1, 10, false)   // radio
	sample([]uint64{3}, 2, 20, true)    // runtime
	sample([]uint64{4}, 4, 40, false)   // bench
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(12, 10000000) // period, a field attribution ignores

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, count, err := layerShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("sample count %d, want 10", count)
	}
	want := map[string]float64{"phy": 0.3, "radio": 0.1, runtimeLayer: 0.2, benchLayer: 0.4}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want %v", shares, want)
	}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", l, shares[l], w)
		}
	}

	// A truncated profile is an error, not a panic or a silent zero.
	gz.Reset()
	zw = gzip.NewWriter(&gz)
	if _, err := zw.Write(prof[:len(prof)-3]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := layerShares(gz.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
