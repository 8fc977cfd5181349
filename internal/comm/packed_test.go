package comm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// levelByThreshold is the decision rule AppendDemodulateBytes uses:
// the level index is the number of thresholds at or below x.
func levelByThreshold(thr []float64, x float64) int {
	idx := 0
	for _, t := range thr {
		if x >= t {
			idx++
		}
	}
	return idx
}

// TestDemodThresholdsExact proves the threshold decision rule equals
// nearestLevel everywhere it matters: exactly at every threshold, one
// ulp on either side of it, at extreme magnitudes, and across a dense
// random sweep of the amplitude range.
func TestDemodThresholdsExact(t *testing.T) {
	for _, bits := range []int{2, 4, 8} {
		pm, ok := NewPackedModem(NewQAM(bits))
		if !ok {
			t.Fatalf("QAM%d: expected packed modem", 1<<bits)
		}
		qm := pm.qm
		if len(pm.qm.thr) != qm.levels-1 {
			t.Fatalf("QAM%d: %d thresholds for %d levels", 1<<bits, len(pm.qm.thr), qm.levels)
		}
		check := func(x float64) {
			t.Helper()
			if got, want := levelByThreshold(pm.qm.thr, x), qm.nearestLevel(x); got != want {
				t.Fatalf("QAM%d: x=%v threshold rule %d, nearestLevel %d", 1<<bits, x, got, want)
			}
		}
		for _, th := range pm.qm.thr {
			check(th)
			check(math.Nextafter(th, math.Inf(-1)))
			check(math.Nextafter(th, math.Inf(1)))
		}
		for _, x := range []float64{0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, -1e-300} {
			check(x)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		span := 4 * math.Abs(qm.amps[len(qm.amps)-1])
		for i := 0; i < 200_000; i++ {
			check((rng.Float64()*2 - 1) * span)
		}
	}
}

// TestDemodBoundarySymbols drives both production demodulators on
// symbols placed exactly at, and one ulp either side of, every decision
// threshold — the inputs where a branchless reformulation could slip —
// plus signed zeros, huge magnitudes and ±Inf, and pins their bits
// against demodulateRef, the nearestLevel oracle. The bit-level modem
// must also map NaNs of either sign to level 0 as the oracle does; the
// packed modem decides a NaN by its sign bit (see decideLevel), so it is
// probed on the non-NaN grid only.
func TestDemodBoundarySymbols(t *testing.T) {
	grid := func(probes []float64) []Symbol {
		var syms []Symbol
		for _, i := range probes {
			for _, q := range probes {
				syms = append(syms, Symbol{I: i, Q: q})
			}
		}
		// Pad to a whole number of bytes.
		for len(syms)%8 != 0 {
			syms = append(syms, Symbol{})
		}
		return syms
	}
	for _, bits := range []int{2, 4, 6, 8} {
		mod := NewQAM(bits)
		bitModem, err := NewModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		qm := bitModem.(*qamModem)
		var probes []float64
		for _, th := range qm.thr {
			probes = append(probes, th,
				math.Nextafter(th, math.Inf(-1)),
				math.Nextafter(th, math.Inf(1)))
		}
		probes = append(probes, 0, math.Copysign(0, -1), 1e300, -1e300, math.Inf(1), math.Inf(-1))

		nanSyms := grid(append(probes, math.NaN(), math.Copysign(math.NaN(), -1)))
		if got, want := bitModem.AppendDemodulate(nil, nanSyms), demodulateRef(qm, nil, nanSyms); !bytes.Equal(got, want) {
			t.Fatalf("QAM%d: bit modem decisions differ from the oracle", 1<<bits)
		}
		pm, ok := NewPackedModem(mod)
		if !ok {
			continue
		}
		syms := grid(probes)
		refBytes := AppendBitsAsBytes(nil, demodulateRef(qm, nil, syms))
		gotBytes := pm.AppendDemodulateBytes(nil, syms)
		if len(refBytes) != len(gotBytes) {
			t.Fatalf("QAM%d: %d bytes vs %d", 1<<bits, len(gotBytes), len(refBytes))
		}
		for i := range refBytes {
			if refBytes[i] != gotBytes[i] {
				t.Fatalf("QAM%d: byte %d: %#x vs %#x", 1<<bits, i, gotBytes[i], refBytes[i])
			}
		}
	}
}
