package comm

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// roundTrip carries one frame path's state: encode → modulate → AWGN →
// demodulate → decode over a fleet-default frame (32 channels at 10
// bits, 16-QAM at 12 dB Eb/N0).
type roundTrip struct {
	samples []uint16
	pkt     *Packetizer
	ch      *AWGNChannel
	frame   []byte
	bits    []byte
	syms    []Symbol
	rxBits  []byte
	rx      []byte
	scratch []uint16
}

func newRoundTrip() *roundTrip {
	pkt, _ := NewPacketizer(10)
	return &roundTrip{
		samples: benchSamples(32, 10),
		pkt:     pkt,
		ch:      NewAWGNChannel(math.Pow(10, 12.0/10), 1),
	}
}

// fast runs one frame through the production kernels and returns the
// decoded frame (or the rejection).
func (r *roundTrip) fast(pm *PackedModem) (Frame, error) {
	r.frame, _ = r.pkt.AppendEncode(r.frame[:0], r.samples)
	r.syms = pm.AppendModulateBytes(r.syms[:0], r.frame)
	r.ch.TransmitInPlace(r.syms)
	r.rx = pm.AppendDemodulateBytes(r.rx[:0], r.syms)
	fr, err := Decode(r.rx, r.scratch)
	if err == nil {
		r.scratch = fr.Samples
	}
	return fr, err
}

// ref runs one frame through the reference kernels: the per-bit
// packer, the bit-level modem with nearestLevel decisions, per-draw
// noise and the allocating decoder.
func (r *roundTrip) ref(m Modem) (Frame, error) {
	r.frame = appendFrameRef(r.frame[:0], r.pkt.Seq(), 10, 0, r.samples)
	r.pkt.SetSeq(r.pkt.Seq() + 1)
	r.bits = AppendBytesAsBits(r.bits[:0], r.frame)
	r.syms, _ = m.AppendModulate(r.syms[:0], r.bits)
	transmitRef(r.ch, r.syms)
	r.rxBits = demodulateRef(m.(*qamModem), r.rxBits[:0], r.syms)
	r.rx = AppendBitsAsBytes(r.rx[:0], r.rxBits)
	return decodeRef(r.rx)
}

// frameRoundTrip is the BENCH_fleet.json record of the floor below.
type frameRoundTrip struct {
	Frames     int     `json:"frames"`
	FastNs     float64 `json:"production_ns_per_frame"`
	RefNs      float64 `json:"reference_ns_per_frame"`
	Speedup    float64 `json:"speedup"`
	Accepted   int     `json:"accepted"`
	Modulation string  `json:"modulation"`
}

// TestFrameRoundTripSpeedup is the single-core floor on the production
// frame kernels. Both paths must deliver identical bytes and decoded
// frames; the production path must then run the round trip at least
// 2× faster than the reference kernels (best of five interleaved
// passes each). The floor is not asserted under the race detector,
// whose instrumentation distorts exactly what is measured. The result
// is recorded in the repository's BENCH_fleet.json when present.
func TestFrameRoundTripSpeedup(t *testing.T) {
	mod := NewQAM(4)
	pm, _ := NewPackedModem(mod)
	bm, err := NewModem(mod)
	if err != nil {
		t.Fatal(err)
	}

	fast, ref := newRoundTrip(), newRoundTrip()
	accepted := 0
	for i := 0; i < 500; i++ {
		got, gerr := fast.fast(pm)
		want, werr := ref.ref(bm)
		if !bytes.Equal(fast.rx, ref.rx) {
			t.Fatalf("frame %d: delivered bytes differ\n got %x\nwant %x", i, fast.rx, ref.rx)
		}
		if (gerr == nil) != (werr == nil) || (gerr == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("frame %d: decode differs: %+v/%v vs %+v/%v", i, got, gerr, want, werr)
		}
		if gerr == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == 500 {
		t.Fatalf("%d of 500 frames accepted; the operating point must exercise both outcomes", accepted)
	}

	const frames = 2000
	bestFast, bestRef := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < frames; i++ {
			fast.fast(pm) //nolint:errcheck — rejections are part of the workload
		}
		bestFast = min(bestFast, time.Since(start))
		start = time.Now()
		for i := 0; i < frames; i++ {
			ref.ref(bm) //nolint:errcheck — rejections are part of the workload
		}
		bestRef = min(bestRef, time.Since(start))
	}
	rec := frameRoundTrip{
		Frames:     frames,
		FastNs:     float64(bestFast.Nanoseconds()) / frames,
		RefNs:      float64(bestRef.Nanoseconds()) / frames,
		Speedup:    float64(bestRef) / float64(bestFast),
		Accepted:   accepted,
		Modulation: mod.Name(),
	}
	t.Logf("frame round trip: production %.0f ns, reference %.0f ns (%.2fx)", rec.FastNs, rec.RefNs, rec.Speedup)
	if raceEnabled {
		return
	}
	if rec.Speedup < 2 {
		t.Errorf("production frame round trip only %.2fx faster than the reference kernels, want >= 2x", rec.Speedup)
	}
	recordFrameRoundTrip(t, rec)
}

// recordFrameRoundTrip stores rec under "frame_round_trip" in the
// repository root's BENCH_fleet.json, leaving every other field as it
// is. The file is replaced by rename so a concurrent reader never sees
// it half written.
func recordFrameRoundTrip(t *testing.T, rec frameRoundTrip) {
	path := filepath.Join("..", "..", "BENCH_fleet.json")
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["frame_round_trip"], err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}
