package main

import (
	"fmt"
	"sort"
	"time"

	"mindful/internal/comm"
	"mindful/internal/fault"
	"mindful/internal/fleet"
	"mindful/internal/obs"
	"mindful/internal/wearable"
)

// Fleet workloads: 16 implants of 32 channels under 16-QAM, stepped as
// one batch of 16 on one worker (on a 2-vCPU VM with about one core of
// real capacity, more workers only add contention). One operation is one
// fleet.Run; the measured window repeats it with the same inputs, so
// every run must reproduce the first one's digests and counts exactly.
const (
	fleetImplants = 16
	// fleetDecodeTicks covers two drift epochs and two refit periods
	// per implant; fleetLinkTicks makes a decoder-off run last ~0.1 s.
	fleetDecodeTicks = 128
	fleetLinkTicks   = 1024
	// driftEpochTicks shortens the sweep profile's 1000-tick epoch so
	// drift advances within one run.
	driftEpochTicks = 64
)

// pinned are the frame and decode digests of the default seed; a run
// of the default seed that reproduces neither is a failed operation.
var pinned = map[string][2]uint64{
	"fleet-decode": {0x0a8f7d938acb19a7, 0x0a1d7e29514e0bd1},
	"fleet-link":   {0x58fb8292fb324e07, 0},
}

// fleetConfig builds the workload's fleet from the seed.
func fleetConfig(workload string, seed int64) fleet.Config {
	cfg := fleet.DefaultConfig() // 32 ch, 2 kHz, 10-bit ADC, 16-QAM at 12 dB
	cfg.Implants = fleetImplants
	cfg.Workers = 1
	cfg.Batch = fleetImplants
	cfg.Seed = simSeed(seed, 1)
	cfg.Ticks = fleetLinkTicks
	if workload == "fleet-decode" {
		cfg.Ticks = fleetDecodeTicks
		faults := fault.DefaultProfile().Scale(0.25)
		cfg.Faults = &faults
		cfg.ARQ = comm.ARQConfig{MaxRetries: 2}
		cfg.FECDepth = 4
		cfg.Concealment = wearable.ConcealHold
		d := fleet.DefaultSweepProfile()
		d.EpochTicks = driftEpochTicks
		d = d.Scale(0.5)
		cfg.Drift = &d
		cfg.Decode = fleet.DecodeConfig{Kind: fleet.DecoderKalman, Calibrate: true, Track: true, Adapt: true}
	}
	return cfg
}

// fingerprint is the deterministic part of an aggregate: equal
// fingerprints mean byte-identical output and identical counts.
type fingerprint struct {
	Digest, DecodeDigest                              uint64
	Frames, Accepted, Corrupt, LostSeq, Blanked       int64
	LinkDropped, Retransmits, FECCorrected, Concealed int64
	DecodedSteps, DecodeMACs, Refits, DecodeErrBins   int64
	DecodeSqErr                                       float64
}

func fingerprintOf(a *fleet.Aggregate) fingerprint {
	return fingerprint{
		Digest: a.Digest, DecodeDigest: a.DecodeDigest,
		Frames: a.Frames, Accepted: a.Accepted, Corrupt: a.Corrupt, LostSeq: a.LostSeq, Blanked: a.Blanked,
		LinkDropped: a.LinkDropped, Retransmits: a.Retransmits, FECCorrected: a.FECCorrected, Concealed: a.Concealed,
		DecodedSteps: a.DecodedSteps, DecodeMACs: a.DecodeMACs, Refits: a.Refits, DecodeErrBins: a.DecodeErrBins,
		DecodeSqErr: a.DecodeSqErr,
	}
}

// checkAccounting verifies the frame accounting closes: every framed
// payload is accepted, rejected as corrupt, lost whole on the link or
// blanked by a brownout. Without ARQ a frame is lost whole exactly when
// the link drops it; with ARQ only a frame whose retries ran out can be,
// and such a frame may also surface as corrupt.
func checkAccounting(cfg fleet.Config, a *fleet.Aggregate) error {
	want := int64(cfg.Implants * cfg.Ticks)
	if a.Frames+a.Blanked != want {
		return fmt.Errorf("frames %d + blanked %d != %d framed", a.Frames, a.Blanked, want)
	}
	lost := a.Frames - a.Accepted - a.Corrupt
	bad := lost < 0 || lost > a.ARQFailed
	if !cfg.ARQ.Enabled() {
		bad = lost != a.LinkDropped
	}
	if bad {
		return fmt.Errorf("accepted %d + corrupt %d + lost %d + blanked %d != %d framed (link dropped %d, ARQ exhausted %d)",
			a.Accepted, a.Corrupt, lost, a.Blanked, want, a.LinkDropped, a.ARQFailed)
	}
	return nil
}

// buildFleet constructs the fleet's pipelines, fits included; the
// pipelines are closed afterwards.
func buildFleet(cfg fleet.Config, tr *tracer) error {
	ps := make([]*fleet.Pipeline, 0, cfg.Implants)
	defer func() {
		for _, p := range ps {
			p.Close()
		}
	}()
	setup := tr.begin("fleet.setup", 0, 0)
	defer tr.end(setup)
	for i := 0; i < cfg.Implants; i++ {
		sp := tr.begin("fleet.NewPipeline", setup, 0)
		p, err := fleet.NewPipeline(cfg, i, 0)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("fleet set-up: %w", err)
		}
		ps = append(ps, p)
	}
	return nil
}

// fleetWindow is one measured window of repeated runs.
type fleetWindow struct {
	wallsMs []float64
	cpuMs   []float64
	fps     []float64 // frames per wall second
	fpc     []float64 // frames per CPU second
	fpr     []float64 // the same, rescaled to the reference host speed
	ref     []float64 // reference speed around each run
	frames  int64
	steps   int64 // decoder steps, for per-step attribution
}

// measureFleet repeats fleet.Run for the given seconds (at least three
// runs), checking each against the reference fingerprint.
func measureFleet(cfg fleet.Config, seconds float64, ref fingerprint, out *outcome, tr *tracer) fleetWindow {
	var w fleetWindow
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Each run's speed is rescaled by the reference speed measured
	// just before and just after it.
	refBefore := refSpeed(3)
	for runs := 0; time.Now().Before(deadline) || runs < 3; runs++ {
		sp := tr.begin("fleet.Run", 0, 0)
		c0 := cpuTime()
		agg, err := fleet.Run(cfg)
		cpu := cpuTime() - c0
		tr.end(sp)
		if err != nil {
			out.check(false, "fleet run: %v", err)
			continue
		}
		got := fingerprintOf(agg)
		out.check(got == ref, "fleet run diverged from the first run: %+v vs %+v", got, ref)
		w.wallsMs = append(w.wallsMs, ms(agg.Elapsed))
		w.cpuMs = append(w.cpuMs, ms(cpu))
		w.fps = append(w.fps, agg.FramesPerSecond)
		w.fpc = append(w.fpc, float64(agg.Frames)/cpu.Seconds())
		refAfter := refSpeed(3)
		speed := (refBefore + refAfter) / 2
		refBefore = refAfter
		w.ref = append(w.ref, speed)
		w.fpr = append(w.fpr, w.fpc[len(w.fpc)-1]*refNominal/speed)
		w.frames += agg.Frames
		w.steps += agg.DecodedSteps
	}
	return w
}

func runFleet(opts options, tr *tracer) (*outcome, error) {
	cfg := fleetConfig(opts.workload, opts.seed)
	out := newOutcome()
	v := out.values

	// Set-up: build the whole fleet several times, report the median.
	reps := 15
	if opts.short {
		reps = 2
	}
	if err := measureSetup(opts.out, v, reps, func() error { return buildFleet(cfg, tr) }, func() {}); err != nil {
		return nil, err
	}

	// The first run warms the pools and becomes the reference every
	// later run must reproduce.
	first, err := fleet.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet reference run: %w", err)
	}
	ref := fingerprintOf(first)
	err = checkAccounting(cfg, first)
	out.check(err == nil, "frame accounting: %v", err)
	if opts.seed == DefaultSeed {
		pin := pinned[opts.workload]
		out.check(first.Digest == pin[0] && first.DecodeDigest == pin[1],
			"default-seed digests %016x/%016x, pinned %016x/%016x", first.Digest, first.DecodeDigest, pin[0], pin[1])
	}
	fmt.Fprintf(opts.out, "reference: digest %016x decode-digest %016x refits %d decode-rmse %.12g steps %d macs %d\n",
		first.Digest, first.DecodeDigest, first.Refits, first.DecodeRMSE(), first.DecodedSteps, first.DecodeMACs)

	seconds := opts.seconds
	if opts.trace {
		seconds /= 2
	}
	tr.record(false)
	mem := readMem()
	w := measureFleet(cfg, seconds, ref, out, tr)
	mem.since(v, float64(w.frames))
	v["frames_per_cpu_s"] = median(w.fpc)
	v["frames_per_ref_cpu_s"] = median(w.fpr)
	v["host.ref_passes_per_cpu_s"] = median(w.ref)
	v["frames_per_wall_s"] = median(w.fps)
	v["rss_peak_mb"] = peakRSSMB()
	fmt.Fprintf(opts.out, "runs %d (each identical to the reference): frames per CPU second median %.6g [q1 %.6g, q3 %.6g], at reference speed %.6g [q1 %.6g, q3 %.6g], per wall second %.6g; run CPU p50 %.4g ms p90 %.4g ms, wall p50 %.4g ms\n",
		len(w.fpc), median(w.fpc), quantile(w.fpc, 0.25), quantile(w.fpc, 0.75),
		median(w.fpr), quantile(w.fpr, 0.25), quantile(w.fpr, 0.75), median(w.fps),
		median(w.cpuMs), quantile(w.cpuMs, 0.9), median(w.wallsMs))

	if opts.trace {
		traceFleet(opts, cfg, seconds, ref, first, w, out, tr)
	}
	return out, nil
}

// traceFleet runs the traced half: the same runs with the fleet's stage
// clocks on, attributing each run's wall to set-up, stages and residual.
func traceFleet(opts options, cfg fleet.Config, seconds float64, ref fingerprint, first *fleet.Aggregate, untraced fleetWindow, out *outcome, tr *tracer) {
	v := out.values
	tr.record(true)
	timer := obs.NewStageTimer()
	tcfg := cfg
	tcfg.StageTiming = timer
	tw := measureFleet(tcfg, seconds, ref, out, tr)
	v["trace_overhead_pct"] = pct(median(tw.cpuMs), median(untraced.cpuMs))

	setupMs := median(tr.durations("fleet.NewPipeline"))
	v["fleet.setup_ms_per_implant"] = setupMs

	stats := timer.Stats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Stage < stats[j].Stage })
	var stageNs int64
	for _, st := range stats {
		stageNs += st.TotalNs
		switch st.Stage {
		case "decode":
			if tw.steps > 0 {
				v["fleet.decode.ns_per_step"] = float64(st.TotalNs) / float64(tw.steps)
			}
		default:
			if st.Count > 0 {
				v["fleet."+st.Stage+".ns_per_frame"] = float64(st.TotalNs) / float64(st.Count)
			}
		}
	}
	runs := float64(len(tw.wallsMs))
	var wallMs float64
	for _, x := range tw.wallsMs {
		wallMs += x
	}
	setupTotal := setupMs * float64(cfg.Implants) * runs
	stagesMs := float64(stageNs) / 1e6
	residual := wallMs - setupTotal - stagesMs
	v["fleet.residual_ms"] = residual / runs
	v["fleet.residual_share"] = residual / wallMs
	fmt.Fprintf(opts.out, "attribution over %d traced runs: wall %.2f ms = setup %.2f + stages %.2f + residual %.2f (share %.3f)\n",
		len(tw.wallsMs), wallMs, setupTotal, stagesMs, residual, residual/wallMs)
	for _, st := range stats {
		fmt.Fprintf(opts.out, "  stage %-9s total %10.2f ms over %d steps\n", st.Stage, float64(st.TotalNs)/1e6, st.Count)
	}
	if tw.steps > 0 {
		fmt.Fprintf(opts.out, "  decode per step: %.0f ns over %d steps (per-frame mean mixes accumulate and flush)\n",
			v["fleet.decode.ns_per_step"], tw.steps)
	}

	a := first
	if a.DecodedSteps > 0 {
		v["decode_rmse"] = a.DecodeRMSE()
		v["decode.steps"] = float64(a.DecodedSteps)
		v["decode.macs_per_step"] = float64(a.DecodeMACs) / float64(a.DecodedSteps)
		v["adapt.refits"] = float64(a.Refits)
	}
	if a.Frames > 0 {
		v["comm.retransmits_per_frame"] = float64(a.Retransmits) / float64(a.Frames)
		v["comm.fec_corrected_per_kframe"] = 1000 * float64(a.FECCorrected) / float64(a.Frames)
	}
	v["wearable.accept_ratio"] = a.DeliveryRate()
	v["wearable.concealed_frac"] = a.ConcealedFraction()
}
