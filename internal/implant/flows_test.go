package implant

import (
	"testing"

	"mindful/internal/comm"
	"mindful/internal/units"
)

func TestFeatureCentricFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 32
	cfg.Flow = FeatureCentric
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frames int
	var width int
	im.OnFrame(func(buf []byte) {
		f, err := comm.Decode(buf, nil)
		if err != nil {
			t.Fatalf("feature frame corrupt: %v", err)
		}
		frames++
		width = len(f.Samples)
	})
	const ticks = 2000 // 1 s at 2 kHz
	if err := im.Run(ticks); err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	// High-gamma extractor at 2 kHz decimates ÷20 → 100 vectors/s.
	if st.FeatureVectors != ticks/20 {
		t.Errorf("feature vectors = %d, want %d", st.FeatureVectors, ticks/20)
	}
	if frames != int(st.FeatureVectors) || width != 32 {
		t.Errorf("frames = %d (width %d)", frames, width)
	}
	// The whole point: a large uplink reduction vs raw streaming.
	if cr := st.CompressionRatio(); cr < 10 {
		t.Errorf("feature flow compression = %.1f×, want ≥ 10×", cr)
	}
	if st.Flow.String() != "feature-centric" {
		t.Errorf("flow name = %q", st.Flow)
	}
}

func TestSpikeCentricFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 32
	cfg.Neural.ActiveFraction = 1
	cfg.Neural.MeanRateHz = 20
	cfg.Neural.NoiseRMS = 0.06
	cfg.Neural.LFPAmplitude = 0.05
	cfg.Neural.SampleRate = units.Kilohertz(8)
	cfg.Flow = SpikeCentric
	cfg.SpikeCalibrationTicks = 2000
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im.OnFrame(func(buf []byte) {
		f, err := comm.Decode(buf, nil)
		if err != nil {
			t.Fatalf("spike frame corrupt: %v", err)
		}
		for _, ch := range f.Samples {
			if int(ch) >= cfg.Neural.Channels {
				t.Fatalf("spike event names channel %d of %d", ch, cfg.Neural.Channels)
			}
		}
	})
	const seconds = 3
	ticks := int(cfg.Neural.SampleRate.Hz()) * seconds
	if err := im.Run(ticks); err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	// Expected events ≈ channels × rate × post-calibration time; detectors
	// also miss some and false-trigger some — allow a wide band.
	expected := float64(32 * 20 * seconds)
	if float64(st.SpikeEvents) < 0.3*expected || float64(st.SpikeEvents) > 2.5*expected {
		t.Errorf("spike events = %d, expected ≈%v", st.SpikeEvents, expected)
	}
	// Event streaming must crush the uplink relative to raw data.
	if cr := st.CompressionRatio(); cr < 20 {
		t.Errorf("spike flow compression = %.1f×, want ≥ 20×", cr)
	}
	if st.Flow.String() != "spike-centric" {
		t.Errorf("flow name = %q", st.Flow)
	}
}

func TestSpikeFlowValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flow = SpikeCentric
	cfg.SpikeCalibrationTicks = 4 // too short
	if _, err := New(cfg); err == nil {
		t.Errorf("tiny calibration window should fail")
	}
	// Default window applies when zero.
	cfg.SpikeCalibrationTicks = 0
	if _, err := New(cfg); err != nil {
		t.Errorf("default calibration should work: %v", err)
	}
}

func TestUnknownFlowName(t *testing.T) {
	if Dataflow(99).String() != "unknown" {
		t.Errorf("unknown flow name wrong")
	}
}
