package implant

import (
	"testing"

	"mindful/internal/comm"
	"mindful/internal/units"
)

func dropoutConfig(channels, keep, calib int) Config {
	cfg := DefaultConfig()
	cfg.Neural.Channels = channels
	cfg.Neural.ActiveFraction = 0.5 // half the channels have units
	cfg.Neural.MeanRateHz = 60
	cfg.Neural.NoiseRMS = 0.05
	cfg.Neural.LFPAmplitude = 0.05
	cfg.Neural.SampleRate = units.Kilohertz(8)
	cfg.Dropout = Dropout{Enabled: true, CalibrationTicks: calib, Keep: keep}
	return cfg
}

func TestDropoutSelectsActiveChannels(t *testing.T) {
	const channels, keep, calib = 64, 16, 8000 // 1 s calibration
	im, err := New(dropoutConfig(channels, keep, calib))
	if err != nil {
		t.Fatal(err)
	}
	// During calibration: full-width frames, no selection yet.
	if err := im.Run(calib - 1); err != nil {
		t.Fatal(err)
	}
	if im.ActiveChannels() != nil {
		t.Fatalf("selection appeared before the window filled")
	}
	var lastFrame []byte
	im.OnFrame(func(buf []byte) { lastFrame = append(lastFrame[:0], buf...) })
	if err := im.Run(1); err != nil { // window fills here; selection applies immediately
		t.Fatal(err)
	}
	sel := im.ActiveChannels()
	if len(sel) != keep {
		t.Fatalf("selected %d channels, want %d", len(sel), keep)
	}
	// Post-calibration frames carry only the subset.
	if err := im.Run(10); err != nil {
		t.Fatal(err)
	}
	f, err := comm.Decode(lastFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Samples) != keep {
		t.Errorf("post-dropout frame carries %d channels, want %d", len(f.Samples), keep)
	}
	// The selection should favour genuinely spiking channels: most picks
	// must be in the generator's active set.
	activeSet := map[int]bool{}
	for _, c := range im.gen.ActiveChannels() {
		activeSet[c] = true
	}
	hits := 0
	for _, c := range sel {
		if activeSet[c] {
			hits++
		}
	}
	if hits < keep*3/4 {
		t.Errorf("only %d/%d selected channels are truly active", hits, keep)
	}
}

func TestDropoutReducesUplinkRate(t *testing.T) {
	const channels, keep, calib = 64, 16, 2000
	withDrop, err := New(dropoutConfig(channels, keep, calib))
	if err != nil {
		t.Fatal(err)
	}
	noDropCfg := dropoutConfig(channels, keep, calib)
	noDropCfg.Dropout.Enabled = false
	noDrop, err := New(noDropCfg)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 10000
	if err := withDrop.Run(ticks); err != nil {
		t.Fatal(err)
	}
	if err := noDrop.Run(ticks); err != nil {
		t.Fatal(err)
	}
	bitsWith := withDrop.Stats().BitsSent
	bitsWithout := noDrop.Stats().BitsSent
	// 80% of the run is post-dropout at 1/4 width: expect roughly a 3×
	// reduction (framing overhead dampens it).
	if float64(bitsWithout)/float64(bitsWith) < 2 {
		t.Errorf("dropout reduced uplink only %0.1f× (%d vs %d bits)",
			float64(bitsWithout)/float64(bitsWith), bitsWithout, bitsWith)
	}
}

func TestDropoutValidation(t *testing.T) {
	cfg := dropoutConfig(32, 8, 100)
	cfg.Flow = ComputeCentric
	cfg.Network = smallNetwork(t, 32, 4)
	if _, err := New(cfg); err == nil {
		t.Errorf("dropout with compute flow should be rejected")
	}
	cfg = dropoutConfig(32, 0, 100)
	if _, err := New(cfg); err == nil {
		t.Errorf("keep=0 should be rejected")
	}
	cfg = dropoutConfig(32, 64, 100)
	if _, err := New(cfg); err == nil {
		t.Errorf("keep > channels should be rejected")
	}
	cfg = dropoutConfig(32, 8, 0)
	if _, err := New(cfg); err == nil {
		t.Errorf("zero calibration window should be rejected")
	}
	// Disabled dropout: nil state everywhere, no selection ever.
	cfg = dropoutConfig(32, 8, 100)
	cfg.Dropout.Enabled = false
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Run(300); err != nil {
		t.Fatal(err)
	}
	if im.ActiveChannels() != nil {
		t.Errorf("disabled dropout should never select")
	}
}
