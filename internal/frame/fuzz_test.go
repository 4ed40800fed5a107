package frame

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFCS drives the encode/decode path with arbitrary frame fields and
// checks the FCS invariants: a well-formed encoding always round-trips,
// and flipping any single bit of the wire image is always detected.
func FuzzFCS(f *testing.F) {
	f.Add(uint8(1), false, uint8(0), uint16(0), uint16(1), uint16(2), []byte{}, uint16(0))
	f.Add(uint8(2), true, uint8(200), uint16(0xCAFE), uint16(0xFFFF), uint16(7), []byte("hello"), uint16(13))
	f.Add(uint8(3), false, uint8(42), uint16(1), uint16(2), uint16(3), bytes.Repeat([]byte{0xA5}, MaxPayload), uint16(900))

	f.Fuzz(func(t *testing.T, typ uint8, ackReq bool, seq uint8, pan, dst, src uint16, payload []byte, flip uint16) {
		in := &Frame{
			Type:    Type(typ & 0x7),
			AckReq:  ackReq,
			Seq:     seq,
			PAN:     pan,
			Dst:     Address(dst),
			Src:     Address(src),
			Payload: payload,
		}
		buf, err := in.Encode()
		if err != nil {
			if len(payload) > MaxPayload {
				return // oversize payloads are rejected by contract
			}
			t.Fatalf("Encode failed on a legal frame: %v", err)
		}

		out, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode rejected its own encoding: %v", err)
		}
		if out.Type != in.Type || out.AckReq != in.AckReq || out.Seq != in.Seq ||
			out.PAN != in.PAN || out.Dst != in.Dst || out.Src != in.Src ||
			!bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
		}

		// CRC-16 detects every single-bit error: corrupt one bit anywhere
		// in the MPDU (header, payload or the FCS itself) and decode must
		// fail with a checksum error.
		corrupted := make([]byte, len(buf))
		copy(corrupted, buf)
		bit := int(flip) % (8 * len(corrupted))
		corrupted[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(corrupted); err == nil {
			t.Fatalf("single-bit corruption at bit %d went undetected", bit)
		}
	})
}

// FuzzDecode feeds arbitrary bytes to Decode. FuzzFCS only ever decodes
// its own encodings; this target covers what a corrupted or hostile
// buffer can do. Decode must never panic, and a buffer it accepts must
// describe a frame of exactly its length that encodes again.
func FuzzDecode(f *testing.F) {
	valid, err := (&Frame{Type: TypeData, Seq: 7, PAN: 0x22, Dst: 1, Src: 2, Payload: []byte("hello")}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	// A header whose frame-control field Encode never writes, sealed
	// with a correct FCS so it gets past the checksum.
	odd := []byte{0xff, 0xff, 1, 2, 3, 4, 5, 6, 7}
	odd = binary.LittleEndian.AppendUint16(odd, FCS(odd))
	f.Add(valid)
	f.Add(odd)
	f.Add(valid[:HeaderBytes])
	f.Add(append(bytes.Clone(valid), make([]byte, MaxMPDU)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, err := Decode(buf)
		if err != nil {
			return
		}
		if fr.MPDUBytes() != len(buf) {
			t.Fatalf("decoded frame spans %d MPDU bytes, input had %d", fr.MPDUBytes(), len(buf))
		}
		if _, err := fr.Encode(); err != nil {
			t.Fatalf("decoded frame does not encode: %v", err)
		}
	})
}
