package comm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	p, err := NewPacketizer(10)
	if err != nil {
		t.Fatal(err)
	}
	samples := []uint16{0, 1, 512, 1023, 700}
	buf, err := p.Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 0 || f.SampleBits != 10 || len(f.Samples) != len(samples) {
		t.Fatalf("frame header mismatch: %+v", f)
	}
	for i := range samples {
		if f.Samples[i] != samples[i] {
			t.Errorf("sample %d: got %d, want %d", i, f.Samples[i], samples[i])
		}
	}
	// Sequence counter advances.
	buf2, err := p.Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Decode(buf2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Seq != 1 {
		t.Errorf("second frame seq = %d, want 1", f2.Seq)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, bitsRaw uint8) bool {
		bits := int(bitsRaw%16) + 1
		n := int(nRaw%512) + 1
		p, err := NewPacketizer(bits)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		max := 1<<bits - 1
		samples := make([]uint16, n)
		for i := range samples {
			samples[i] = uint16(rng.Intn(max + 1))
		}
		buf, err := p.Encode(samples)
		if err != nil {
			return false
		}
		fr, err := Decode(buf, nil)
		if err != nil || len(fr.Samples) != n {
			return false
		}
		for i := range samples {
			if fr.Samples[i] != samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPacketCorruptionDetected(t *testing.T) {
	p, err := NewPacketizer(12)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := p.Encode([]uint16{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Flip every bit position one at a time; CRC (or magic/format checks)
	// must catch all single-bit errors.
	for pos := 0; pos < len(buf)*8; pos++ {
		c := make([]byte, len(buf))
		copy(c, buf)
		c[pos/8] ^= 1 << (pos % 8)
		if _, err := Decode(c, nil); err == nil {
			t.Fatalf("single-bit corruption at bit %d not detected", pos)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, nil); err != ErrShortFrame {
		t.Errorf("nil frame: %v", err)
	}
	if _, err := Decode(make([]byte, 5), nil); err != ErrShortFrame {
		t.Errorf("short frame: %v", err)
	}
	p, _ := NewPacketizer(8)
	buf, _ := p.Encode([]uint16{1})
	bad := make([]byte, len(buf))
	copy(bad, buf)
	bad[0] = 0x00 // break magic
	if _, err := Decode(bad, nil); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	copy(bad, buf)
	bad[len(bad)-1] ^= 0xFF // break CRC
	if _, err := Decode(bad, nil); err != ErrBadCRC {
		t.Errorf("bad crc: %v", err)
	}
	// Truncated payload: drop a byte and re-checksum won't match either;
	// shorten to below header size instead.
	if _, err := Decode(buf[:8], nil); err == nil {
		t.Errorf("truncated frame should fail")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := NewPacketizer(0); err == nil {
		t.Errorf("0-bit samples should be rejected")
	}
	if _, err := NewPacketizer(17); err == nil {
		t.Errorf("17-bit samples should be rejected")
	}
	p, err := NewPacketizer(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Encode(nil); err == nil {
		t.Errorf("empty sample vector should fail")
	}
	if _, err := p.Encode([]uint16{1024}); err == nil {
		t.Errorf("out-of-range sample should fail")
	}
}

func TestPackUnpackSamples(t *testing.T) {
	samples := []uint16{0x3, 0x1, 0x0, 0x2, 0x3}
	packed := AppendPackSamples(nil, samples, 2)
	if len(packed) != 2 { // 10 bits → 2 bytes
		t.Fatalf("packed length = %d", len(packed))
	}
	got := appendUnpackSamples(nil, packed, len(samples), 2)
	for i := range samples {
		if got[i] != samples[i] {
			t.Errorf("sample %d: %d != %d", i, got[i], samples[i])
		}
	}
	if _, err := unpackSamplesRef(packed, 20, 2); err == nil {
		t.Errorf("unpack beyond data should fail")
	}
}

func TestFrameSizeBits(t *testing.T) {
	// 1024 channels × 10 bits = 1280 payload bytes + 10 header + 4 CRC.
	got := FrameSizeBits(1024, 10)
	want := (10 + 1280 + 4) * 8
	if got != want {
		t.Errorf("FrameSizeBits = %d, want %d", got, want)
	}
	// Overhead fraction at scale must be small (<1%), supporting the
	// paper's T_comm ≈ T_sensing approximation.
	overhead := float64(got-1024*10) / float64(1024*10)
	if overhead > 0.02 {
		t.Errorf("framing overhead %.2f%% too large", overhead*100)
	}
}
