// The fleet scaling contract: the parallel simulator must produce
// bit-identical output at every worker count and every batch size while
// throughput scales with the hardware. TestFleetScalingBaseline
// measures two curves on the 64-implant reference fleet and writes
// them to BENCH_fleet.json as the tracked baseline:
//
//   - worker scaling (1/2/4/8 workers) — parallelism across cores,
//     asserted ≥3× at 8 workers where the host has the cores to
//     express it;
//   - batch scaling (B ∈ {1, 4, 16, 64}, one worker) — recorded to show
//     that grouping implants changes nothing but the schedule: every
//     size runs the same Pipeline.Step, so the curve is flat. The
//     single-core kernel floor lives with the kernels, in
//     internal/comm's frame round-trip test, which records its ratio
//     under "frame_round_trip" in the same file.
package mindful_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"testing"

	"mindful/internal/fleet"
	"mindful/internal/obs"
)

// fleetScalingConfig is the fixed workload of both curves: the
// 64-implant reference fleet.
func fleetScalingConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Implants = 64
	cfg.Ticks = 48
	cfg.Channels = 32
	return cfg
}

// fleetScalingBaseline is the BENCH_fleet.json schema (besides the
// frame_round_trip record the comm test owns).
type fleetScalingBaseline struct {
	Benchmark string `json:"benchmark"`
	Implants  int    `json:"implants"`
	Ticks     int    `json:"ticks"`
	Channels  int    `json:"channels"`
	// GOMAXPROCS and NumCPU record the parallelism the host could offer;
	// a flat worker curve on a single-core machine is expected, not a
	// regression.
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"num_cpu"`
	Points     []fleet.ScalingPoint `json:"points"`
	// BatchPoints is the single-worker batch sweep; best-of-three per
	// size, speedups relative to B=1.
	BatchPoints []fleet.BatchPoint `json:"batch_points"`
	// Stages attributes the single-worker tick to stages (ns/frame).
	Stages []obs.StageStats `json:"stages"`
}

// measureBatchCurve runs the batch sweep reps times and keeps each
// size's best throughput — wall-clock points this small are noisy, and
// the curve should record capability, not scheduler luck. Digest
// equality across sizes is enforced inside every sweep.
func measureBatchCurve(t *testing.T, cfg fleet.Config, batches []int, reps int) []fleet.BatchPoint {
	t.Helper()
	var best []fleet.BatchPoint
	for rep := 0; rep < reps; rep++ {
		pts, err := fleet.MeasureBatchSweep(cfg, batches)
		if err != nil {
			t.Fatal(err)
		}
		if best == nil {
			best = pts
			continue
		}
		for i := range pts {
			if pts[i].FramesPerSecond > best[i].FramesPerSecond {
				best[i] = pts[i]
			}
		}
	}
	for i := range best {
		best[i].Speedup = best[i].FramesPerSecond / best[0].FramesPerSecond
	}
	return best
}

func TestFleetScalingBaseline(t *testing.T) {
	cfg := fleetScalingConfig()
	points, err := fleet.MeasureScaling(cfg, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	b := fleetScalingBaseline{
		Benchmark:  "fleet_worker_scaling",
		Implants:   cfg.Implants,
		Ticks:      cfg.Ticks,
		Channels:   cfg.Channels,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Points:     points,
	}
	for _, p := range points {
		t.Logf("workers=%d: %.0f frames/s (%.2fx)", p.Workers, p.FramesPerSecond, p.Speedup)
	}

	// The batch curve: one worker, best of three sweeps per size.
	b.BatchPoints = measureBatchCurve(t, cfg, []int{1, 4, 16, 64}, 3)
	for _, p := range b.BatchPoints {
		t.Logf("batch=%d: %.0f frames/s (%.2fx)", p.Batch, p.FramesPerSecond, p.Speedup)
	}

	// Per-stage attribution, digest-checked against the sweep (the
	// profile decorator is digest-neutral).
	prof, agg, err := fleet.RunProfile(withWorkers(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Digest != points[0].Digest {
		t.Fatalf("profile digest %#x diverged from sweep %#x", agg.Digest, points[0].Digest)
	}
	b.Stages = prof.Stages

	// The parallel-scaling acceptance bound (≥3x at 8 workers) needs at
	// least 8 cores to be physically measurable; on smaller hosts the
	// curve is recorded but only the determinism contract is enforced
	// (digest equality is already checked inside MeasureScaling).
	if b.NumCPU >= 8 && b.GOMAXPROCS >= 8 {
		last := points[len(points)-1]
		if last.Speedup < 3 {
			t.Errorf("8-worker speedup %.2fx on a %d-core host, want >= 3x", last.Speedup, b.NumCPU)
		}
	}

	if err := writeFleetBaseline("BENCH_fleet.json", b); err != nil {
		t.Fatal(err)
	}
}

// writeFleetBaseline writes b to path, carrying over the
// frame_round_trip record already there. Keys are written sorted, the
// order the comm test writes them in too.
func writeFleetBaseline(path string, b fleetScalingBaseline) error {
	raw, err := json.Marshal(b)
	if err != nil {
		return err
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	prev := map[string]json.RawMessage{}
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(old, &prev); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if rt, ok := prev["frame_round_trip"]; ok {
		doc["frame_round_trip"] = rt
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func withWorkers(cfg fleet.Config, w int) fleet.Config {
	cfg.Workers = w
	return cfg
}

// BenchmarkFleet measures the fleet simulator across the worker and
// batch dimensions; ReportAllocs tracks the hot path's per-frame
// allocation budget (the tick path is pinned to zero steady-state
// allocations by the fleet package's alloc test).
func BenchmarkFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fleetScalingConfig()
			cfg.Ticks = 16
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, batch := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("workers=1/batch=%d", batch), func(b *testing.B) {
			cfg := fleetScalingConfig()
			cfg.Ticks = 16
			cfg.Workers = 1
			cfg.Batch = batch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
