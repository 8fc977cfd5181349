package decode

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The decoders' float arithmetic runs through the shared kernels in
// internal/linalg (MulInto, InverseInto and their allocating wrappers).
// These pins hold the exact bits every fit, step and refit produces at
// 32 channels, so a change of floating-point order in linalg fails here,
// in decode's own tests, not only in the fleet-level digest walls. The
// values were recorded before the linalg kernels moved onto row slices.

// floatDigest is FNV-64a over the IEEE-754 bits of every value, signed
// zeros and NaN payloads included.
func floatDigest(parts ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// pinSystem is the 32-channel stream the pins decode: a rotated linear
// tuning model with one silent channel, so the kernels also see rows and
// columns of exact zeros.
func pinSystem(t testing.TB, bins int, angle float64, seed int64) (states, obs [][]float64) {
	t.Helper()
	states, obs = rotatedSystem(t, bins, 32, angle, 0.1, seed)
	for _, z := range obs {
		z[5] = 0
	}
	return states, obs
}

func TestDecoderFitPins(t *testing.T) {
	states, obs := pinSystem(t, 400, 0, 31)
	k, err := FitKalman(states, obs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FitWiener(states, obs, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := k.SteadyStateGain(500, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"FitKalman A", floatDigest(k.A.Data), 0xeb7c9d5d16f1a8cb},
		{"FitKalman W", floatDigest(k.W.Data), 0x2961cc5c80b1db85},
		{"FitKalman H", floatDigest(k.H.Data), 0x608bc43386dc213c},
		{"FitKalman Q", floatDigest(k.Q.Data), 0xbdec2bb40f78cb57},
		{"FitWiener W", floatDigest(w.W.Data), 0xa1687ec20b855816},
		{"SteadyStateGain K", floatDigest(fg.K.Data), 0x62fcc990339dd7b2},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %#016x, want %#016x", c.name, c.got, c.want)
		}
	}
}

// TestKalmanStepPin pins a 200-step trajectory: every estimate and the
// final error covariance.
func TestKalmanStepPin(t *testing.T) {
	states, obs := pinSystem(t, 400, 0, 31)
	k, err := FitKalman(states, obs)
	if err != nil {
		t.Fatal(err)
	}
	_, test := pinSystem(t, 200, 0.4, 32)
	var traj []float64
	for _, z := range test {
		x, err := k.Step(z)
		if err != nil {
			t.Fatal(err)
		}
		traj = append(traj, x...)
	}
	const want uint64 = 0xb0c1efc3afd87abb
	if got := floatDigest(traj, k.State().P); got != want {
		t.Errorf("Kalman.Step trajectory digest %#016x, want %#016x", got, want)
	}
}

// TestRecalibratorRefitPins pins each linear kind's model after exactly
// two refits on a rotated stream.
func TestRecalibratorRefitPins(t *testing.T) {
	states, obs := pinSystem(t, 400, 0, 31)
	build := map[string]func() Decoder{
		"Kalman": func() Decoder {
			k, err := FitKalman(states, obs)
			if err != nil {
				t.Fatal(err)
			}
			return k
		},
		"FixedGain": func() Decoder {
			k, err := FitKalman(states, obs)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := k.SteadyStateGain(500, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			return fg
		},
		"Wiener": func() Decoder {
			w, err := FitWiener(states, obs, 3, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
	want := map[string]uint64{
		"Kalman":    0xb7f17af05c4f9b22,
		"FixedGain": 0x60c3e40b416e2681,
		"Wiener":    0xd2a7e37dd1db3397,
	}
	dayStates, dayObs := pinSystem(t, 200, 0.6, 33)
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			d := mk()
			r, err := NewRecalibrator(d, RecalConfig{Buffer: 32, Every: 16})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; r.Refits() < 2; i++ {
				if i == len(dayObs) {
					t.Fatalf("only %d refits after %d feeds", r.Refits(), i)
				}
				if _, err := d.Step(dayObs[i]); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Feed(dayObs[i], dayStates[i]); err != nil {
					t.Fatal(err)
				}
			}
			st := r.ModelState()
			if got := floatDigest(st.H, st.Q, st.W, st.K); got != want[name] {
				t.Errorf("model after two refits digest %#016x, want %#016x", got, want[name])
			}
		})
	}
}

// BenchmarkKalmanStep times one predict/update cycle at ds=2, do=32; the
// 32×32 innovation-covariance inverse dominates it.
func BenchmarkKalmanStep(b *testing.B) {
	states, obs := pinSystem(b, 400, 0, 31)
	k, err := FitKalman(states, obs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Step(obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitWiener times a 3-lag fit at 32 channels: a 96×96 Gram
// system, the session-create cost of a Wiener decoder.
func BenchmarkFitWiener(b *testing.B) {
	states, obs := pinSystem(b, 400, 0, 31)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitWiener(states, obs, 3, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateGain times the Riccati recursion to a fixed gain
// at 32 channels, the session-create cost of a fixed decoder.
func BenchmarkSteadyStateGain(b *testing.B) {
	states, obs := pinSystem(b, 400, 0, 31)
	k, err := FitKalman(states, obs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.SteadyStateGain(500, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
