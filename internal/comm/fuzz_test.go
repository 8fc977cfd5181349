package comm

import (
	"bytes"
	"testing"
)

// FuzzParsePacket throws arbitrary bytes at the frame parser. Invariants:
// Decode never panics, and every frame it accepts re-encodes canonically
// to the exact input bytes (the parser accepts nothing it cannot
// round-trip).
func FuzzParsePacket(f *testing.F) {
	p, err := NewPacketizer(10)
	if err != nil {
		f.Fatal(err)
	}
	good, err := p.Encode([]uint16{1, 2, 3, 1023})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xBC, 0x1F})
	truncated := append([]byte(nil), good[:len(good)-1]...)
	f.Add(truncated)
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)/2] ^= 0x40
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data, nil)
		if err != nil {
			return
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzPackSamples checks the bit-packing round trip for every sample
// width: pack → unpack must be the identity on in-range samples, and
// both directions must agree with the per-bit oracles.
func FuzzPackSamples(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0xFF, 0x00}, uint8(10))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte{0xAB, 0xCD, 0xEF}, uint8(16))

	f.Fuzz(func(t *testing.T, raw []byte, bitsRaw uint8) {
		bits := int(bitsRaw)%16 + 1
		// Interpret pairs of fuzz bytes as samples, masked into range.
		var samples []uint16
		for i := 0; i+1 < len(raw); i += 2 {
			s := uint16(raw[i])<<8 | uint16(raw[i+1])
			if bits < 16 {
				s &= 1<<bits - 1
			}
			samples = append(samples, s)
		}
		if len(samples) == 0 {
			return
		}
		packed := AppendPackSamples(nil, samples, bits)
		if want := appendPackSamplesRef(nil, samples, bits); !bytes.Equal(packed, want) {
			t.Fatalf("AppendPackSamples disagrees with the per-bit oracle")
		}
		back := appendUnpackSamples(nil, packed, len(samples), bits)
		ref, err := unpackSamplesRef(packed, len(samples), bits)
		if err != nil {
			t.Fatalf("oracle unpack failed: %v", err)
		}
		for i := range samples {
			if back[i] != ref[i] {
				t.Fatalf("sample %d: unpacked %d, oracle %d at %d bits", i, back[i], ref[i], bits)
			}
			if back[i] != samples[i] {
				t.Fatalf("sample %d: packed %d, unpacked %d at %d bits", i, samples[i], back[i], bits)
			}
		}
	})
}

// FuzzFECDecode throws arbitrary coded streams at the Hamming(7,4)
// decoder. Invariants: decode never panics, output length is exactly
// 4 bits per 7 coded bits, corrections never exceed the codeword count,
// and re-encoding the decoded bits yields a stream the decoder maps back
// to the same data (decoding is a projection onto the code).
func FuzzFECDecode(f *testing.F) {
	enc, _ := NewFEC(4)
	clean := enc.AppendEncode(nil, []byte{1, 0, 1, 1, 0, 0, 1, 0})
	f.Add(clean, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9}, uint8(2))
	f.Add(make([]byte, 70), uint8(16))

	f.Fuzz(func(t *testing.T, coded []byte, depthRaw uint8) {
		depth := int(depthRaw)%32 + 1
		fec, err := NewFEC(depth)
		if err != nil {
			t.Fatal(err)
		}
		data, fixed, err := fec.AppendDecode(nil, coded)
		if len(coded)%7 != 0 {
			if err == nil {
				t.Fatalf("decoder accepted length %d", len(coded))
			}
			return
		}
		if err != nil {
			t.Fatalf("decode failed on aligned input: %v", err)
		}
		words := len(coded) / 7
		if len(data) != words*4 {
			t.Fatalf("%d codewords decoded to %d bits", words, len(data))
		}
		if fixed < 0 || fixed > words {
			t.Fatalf("%d corrections for %d codewords", fixed, words)
		}
		re := fec.AppendEncode(nil, data)
		again, fixed2, err := fec.AppendDecode(nil, re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fixed2 != 0 {
			t.Fatalf("re-encoded stream needed %d corrections", fixed2)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decode not a projection: data changed on re-encode round trip")
		}
	})
}

// FuzzARQReorder drives the ARQ loop with a fuzzer-chosen schedule of
// drops, corruptions, duplicates and delayed (reordered) deliveries.
// Invariants: no panic, every frame delivered to the receiver decodes to
// a payload that was actually sent, attempts never exceed the budget, and
// the stats ledger balances.
func FuzzARQReorder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xFF, 0x80}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 40), uint8(5))

	f.Fuzz(func(t *testing.T, schedule []byte, retriesRaw uint8) {
		retries := int(retriesRaw) % 6
		arq, err := NewARQ(ARQConfig{MaxRetries: retries})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := NewPacketizer(8)
		if err != nil {
			t.Fatal(err)
		}
		sent := map[uint32]uint16{}
		var delayed [][]byte // frames the link held back, replayed later
		si := 0
		next := func() byte {
			if si >= len(schedule) {
				return 0
			}
			b := schedule[si]
			si++
			return b
		}
		deliver := func(buf []byte) bool {
			fr, err := Decode(buf, nil)
			if err != nil {
				return false
			}
			want, known := sent[fr.Seq]
			if !known || len(fr.Samples) != 1 || fr.Samples[0] != want {
				t.Fatalf("receiver accepted a frame that was never sent: seq %d", fr.Seq)
			}
			return true
		}
		frames := 12
		for i := 0; i < frames; i++ {
			payload := uint16(i * 17 % 251)
			frame, err := pkt.Encode([]uint16{payload})
			if err != nil {
				t.Fatal(err)
			}
			sent[uint32(i)] = payload
			attempts, _ := arq.Send(frame, len(frame)*8, func(buf []byte) bool {
				switch next() % 4 {
				case 0: // clean delivery
					return deliver(buf)
				case 1: // dropped
					return false
				case 2: // corrupted in flight
					bad := append([]byte(nil), buf...)
					bad[int(next())%len(bad)] ^= 1 << (next() % 8)
					return deliver(bad)
				default: // held back: replay later, out of order
					delayed = append(delayed, append([]byte(nil), buf...))
					return false
				}
			})
			if attempts > retries+1 {
				t.Fatalf("%d attempts exceed budget %d", attempts, retries)
			}
			// Stale/reordered frames surface between sends; the receiver
			// must still only ever see frames that were sent.
			if len(delayed) > 0 && next()%2 == 0 {
				deliver(delayed[len(delayed)-1])
				delayed = delayed[:len(delayed)-1]
			}
		}
		st := arq.Stats()
		if st.Sent != int64(frames) || st.Delivered+st.Failed != st.Sent {
			t.Fatalf("ledger imbalance: %+v", st)
		}
		if st.Retransmits != st.NACKs {
			t.Fatalf("retransmits %d != NACKs %d", st.Retransmits, st.NACKs)
		}
		if st.Recovered > st.Delivered {
			t.Fatalf("recovered %d > delivered %d", st.Recovered, st.Delivered)
		}
	})
}

// FuzzBitsBytes checks the modem bit/byte conversions: unpacking bytes to
// bits and packing back is the identity.
func FuzzBitsBytes(f *testing.F) {
	f.Add([]byte{0xBC, 0x1F, 0x00, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bits := AppendBytesAsBits(nil, data)
		if len(bits) != len(data)*8 {
			t.Fatalf("%d bytes unpacked to %d bits", len(data), len(bits))
		}
		back := AppendBitsAsBytes(nil, bits)
		if !bytes.Equal(back, data) {
			t.Fatalf("bit round-trip mismatch: %x -> %x", data, back)
		}
	})
}
