package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The benchmark attributes CPU time to layers from a runtime/pprof CPU
// profile it takes of itself. The module has no dependency that parses
// the profile format, so this file decodes the few fields of
// profile.proto (github.com/google/pprof/proto/profile.proto) that
// attribution needs: samples with their location stacks, locations with
// their (inlined) lines, functions and the string table.

const modulePrefix = "nonortho/"

// runtimeLayer collects samples with no frame of the module at all:
// garbage collection workers, the scheduler, profiling itself.
const runtimeLayer = "runtime"

// benchLayer collects samples whose innermost module frame is this
// benchmark's own code (package main).
const benchLayer = "bench"

// layerOf names the layer a sample belongs to, given its frames innermost
// first: the nonortho/internal/<layer> package of the innermost module
// frame. Standard-library frames (math.Exp under phy.BitErrorRate,
// runtime.mallocgc under medium) count to the module caller that
// invoked them.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return benchLayer
		}
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		if pkg, ok := strings.CutPrefix(rest, "internal/"); ok {
			if i := strings.IndexAny(pkg, "./"); i > 0 {
				return pkg[:i]
			}
			return pkg
		}
		return benchLayer
	}
	return runtimeLayer
}

// layerShares decodes a gzipped CPU profile and returns each layer's share
// of the sampled CPU time, plus the number of samples it rests on.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total, count int64
	for _, s := range p.samples {
		var frames []string
		for _, locID := range s.locs {
			for _, fnID := range p.locLines[locID] {
				frames = append(frames, p.funcName[fnID])
			}
		}
		w := s.weight
		byLayer[layerOf(frames)] += w
		total += w
		count += s.count
	}
	shares := map[string]float64{}
	for l, w := range byLayer {
		shares[l] = ratio(float64(w), float64(total))
	}
	return shares, count, nil
}

type profSample struct {
	locs   []uint64 // leaf first
	count  int64    // value[0]: samples
	weight int64    // value[last]: CPU nanoseconds for CPU profiles
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id → function ids, innermost inline first
	funcName map[uint64]string
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{} // function id → name string index
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			return p.decodeSample(b)
		case 4: // Location
			return p.decodeLocation(b)
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

func (p *profile) decodeSample(b []byte) error {
	var s profSample
	var vals []int64
	err := eachField(b, func(num int, v uint64, packed []byte) error {
		switch num {
		case 1:
			return appendPacked(&s.locs, v, packed)
		case 2:
			var u []uint64
			if err := appendPacked(&u, v, packed); err != nil {
				return err
			}
			for _, x := range u {
				vals = append(vals, int64(x))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(vals) == 0 {
		return errors.New("profile: sample without values")
	}
	s.count, s.weight = vals[0], vals[len(vals)-1]
	p.samples = append(p.samples, s)
	return nil
}

func (p *profile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num int, v uint64, line []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // Line
			return eachField(line, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locLines[id] = fns
	return err
}

// appendPacked appends a repeated varint field that arrived either as one
// unpacked value (b == nil) or as a packed run.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// bytes. Fixed-width fields are skipped; the profile uses none that
// attribution reads.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
