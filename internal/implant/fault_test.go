package implant

import (
	"testing"

	"mindful/internal/comm"
	"mindful/internal/fault"
	"mindful/internal/obs"
)

// TestElectrodeFaultsReachADC: a dead channel must digitize to the ADC's
// zero code on every tick, while healthy channels keep moving.
func TestElectrodeFaultsReachADC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 8
	bank, err := fault.NewElectrodeBank(8, fault.Profile{DeadFrac: 0.99}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bank.FaultyChannels() == 0 {
		t.Fatal("bank assigned no faults at 99% dead fraction")
	}
	cfg.Electrodes = bank
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zero := cfg.ADC.Quantize(0)
	var deadSeen int
	im.OnFrame(func(buf []byte) {
		f, err := comm.Decode(buf, nil)
		if err != nil {
			t.Fatalf("decode emitted frame: %v", err)
		}
		for c, code := range f.Samples {
			if bank.State(c) == fault.ChannelDead {
				if code != zero {
					t.Fatalf("dead channel %d digitized to %d, want zero code %d", c, code, zero)
				}
				deadSeen++
			}
		}
	})
	for tick := 0; tick < 10; tick++ {
		if err := im.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if deadSeen == 0 {
		t.Fatal("no dead-channel samples observed")
	}
	st := im.Stats()
	if st.FaultyChannels != bank.FaultyChannels() {
		t.Errorf("Stats.FaultyChannels = %d, want %d", st.FaultyChannels, bank.FaultyChannels())
	}
}

// TestBrownoutBlanksTransmitter: blanked ticks must advance the sequence
// counter without radiating, so the wearable sees gaps, and the radio
// energy accounting must exclude them.
func TestBrownoutBlanksTransmitter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 4
	bo, err := fault.NewBrownout(fault.Profile{BrownoutProb: 0.5, BrownoutTicks: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Brownout = bo
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	im.SetObserver(o)
	var radiated int64
	im.OnFrame(func([]byte) { radiated++ })
	const ticks = 200
	if err := im.Run(ticks); err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	if st.BlankedFrames == 0 {
		t.Fatal("no frames blanked at 50% brownout onset")
	}
	if st.Frames != radiated {
		t.Errorf("Stats.Frames %d != radiated %d", st.Frames, radiated)
	}
	if st.Frames+st.BlankedFrames != ticks {
		t.Errorf("frames %d + blanked %d != ticks %d", st.Frames, st.BlankedFrames, ticks)
	}
	if bo.BlankedTicks() != st.BlankedFrames {
		t.Errorf("brownout counted %d ticks, implant %d", bo.BlankedTicks(), st.BlankedFrames)
	}
	if v := o.Metrics.Counter("implant_frames_blanked_total",
		obs.Label{Key: "flow", Value: "communication-centric"}).Value(); v != st.BlankedFrames {
		t.Errorf("blanked counter %d, want %d", v, st.BlankedFrames)
	}
	// Blanked frames must not be billed to the radio.
	expectBits := st.Frames * int64(len(im.frameBuf)) * 8
	if st.BitsSent != expectBits {
		t.Errorf("bits sent %d, want %d (radiated frames only)", st.BitsSent, expectBits)
	}
}

// TestFaultFreeConfigUnchanged: nil fault hooks must leave the pipeline
// byte-identical to the pre-fault behavior.
func TestFaultFreeConfigUnchanged(t *testing.T) {
	run := func(cfg Config) []byte {
		im, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		im.OnFrame(func(buf []byte) { last = append(last[:0], buf...) })
		if err := im.Run(50); err != nil {
			t.Fatal(err)
		}
		return last
	}
	a := run(DefaultConfig())
	b := run(DefaultConfig())
	if string(a) != string(b) {
		t.Fatal("fault-free pipeline not reproducible")
	}
}
