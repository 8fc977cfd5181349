package fleet

import (
	"fmt"
	"time"
)

// ScalingPoint is one worker count's performance on a fixed fleet.
type ScalingPoint struct {
	Workers         int           `json:"workers"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	FramesPerSecond float64       `json:"frames_per_second"`
	// Speedup is relative to the first measured point.
	Speedup float64 `json:"speedup"`
	// Digest witnesses that every point computed identical output
	// (serialized as a string: 64-bit values overflow JSON numbers).
	Digest uint64 `json:"digest,string"`
}

// BatchPoint is one batch size's performance on a fixed single-worker
// fleet.
type BatchPoint struct {
	Batch           int           `json:"batch"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	FramesPerSecond float64       `json:"frames_per_second"`
	// Speedup is relative to the first measured point (batch sweeps
	// conventionally start at 1, one implant at a time).
	Speedup float64 `json:"speedup"`
	// Digest witnesses that every point computed identical output.
	Digest uint64 `json:"digest,string"`
}

// MeasureBatchSweep runs the same fleet at each batch size on a single
// worker and reports the throughput curve — the grouping analogue of
// MeasureScaling, isolating the effect of Batch from parallelism. It
// fails if any point's digest diverges.
func MeasureBatchSweep(cfg Config, batches []int) ([]BatchPoint, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("fleet: no batch sizes to measure")
	}
	cfg.Workers = 1
	points := make([]BatchPoint, 0, len(batches))
	var base float64
	var digest uint64
	for i, b := range batches {
		c := cfg
		c.Batch = b
		agg, err := Run(c)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = agg.FramesPerSecond
			digest = agg.Digest
		} else if agg.Digest != digest {
			return nil, fmt.Errorf("fleet: digest diverged at batch %d: %#x vs %#x", b, agg.Digest, digest)
		}
		p := BatchPoint{
			Batch:           b,
			Elapsed:         agg.Elapsed,
			FramesPerSecond: agg.FramesPerSecond,
			Digest:          agg.Digest,
		}
		if base > 0 {
			p.Speedup = agg.FramesPerSecond / base
		}
		points = append(points, p)
	}
	return points, nil
}

// MeasureScaling runs the same fleet at each worker count and reports the
// throughput curve. It fails if any point's digest diverges — a scaling
// measurement that changes the answer measures nothing.
func MeasureScaling(cfg Config, workerCounts []int) ([]ScalingPoint, error) {
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("fleet: no worker counts to measure")
	}
	points := make([]ScalingPoint, 0, len(workerCounts))
	var base float64
	var digest uint64
	for i, w := range workerCounts {
		c := cfg
		c.Workers = w
		agg, err := Run(c)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = agg.FramesPerSecond
			digest = agg.Digest
		} else if agg.Digest != digest {
			return nil, fmt.Errorf("fleet: digest diverged at %d workers: %#x vs %#x", w, agg.Digest, digest)
		}
		p := ScalingPoint{
			Workers:         w,
			Elapsed:         agg.Elapsed,
			FramesPerSecond: agg.FramesPerSecond,
			Digest:          agg.Digest,
		}
		if base > 0 {
			p.Speedup = agg.FramesPerSecond / base
		}
		points = append(points, p)
	}
	return points, nil
}
