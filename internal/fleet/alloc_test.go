package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"mindful/internal/comm"
	"mindful/internal/fault"
)

// allocConfigs are the allocation pin's scenarios: the default fleet
// (packed transport), a Kalman decoder without tracking, and the harsh
// link — ARQ, FEC and every fault process — with the decoder off.
func allocConfigs() []struct {
	name string
	cfg  Config
} {
	kalman := DefaultConfig()
	kalman.Decode = DecodeConfig{Kind: DecoderKalman}
	harsh := DefaultConfig()
	p := fault.DefaultProfile()
	harsh.Faults = &p
	harsh.ARQ = comm.ARQConfig{MaxRetries: 2}
	harsh.FECDepth = 4
	return []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"kalman", kalman}, {"arq_fec_faults", harsh}}
}

// warmGroup builds n pipelines under cfg and steps them as one group
// until every per-implant buffer has reached steady-state capacity.
func warmGroup(tb testing.TB, cfg Config, n int) []*Pipeline {
	tb.Helper()
	ps := make([]*Pipeline, n)
	for i := range ps {
		p, err := NewPipeline(cfg, i, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ps[i] = p
		tb.Cleanup(p.Close)
	}
	for i := 0; i < 256; i++ {
		stepGroup(ps)
	}
	for _, p := range ps {
		if p.res.Err != nil {
			tb.Fatal(p.res.Err)
		}
	}
	return ps
}

// mallocs returns the heap allocations n calls of fn make in total.
// testing.AllocsPerRun truncates its per-run average to an integer, so
// a path that allocates on most ticks but not all would read as 0.
func mallocs(n int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBatchedStepAllocFree pins the tick path's allocation behavior:
// once buffers reach steady state, neither a single Pipeline.Step (the
// serve path) nor a tick of Run's group loop at B ∈ {1, 16} allocates,
// for the packed transport, a decoder, and the ARQ + FEC + faults
// transport alike.
func TestBatchedStepAllocFree(t *testing.T) {
	for _, sc := range allocConfigs() {
		t.Run(sc.name+"/pipeline_step", func(t *testing.T) {
			p := warmGroup(t, sc.cfg, 1)[0]
			n := mallocs(200, func() {
				if err := p.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("200 steady-state Pipeline.Step calls allocate %d times, want 0", n)
			}
		})
		for _, b := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/group=%d", sc.name, b), func(t *testing.T) {
				ps := warmGroup(t, sc.cfg, b)
				if n := mallocs(200, func() { stepGroup(ps) }); n != 0 {
					t.Errorf("200 steady-state group ticks allocate %d times, want 0", n)
				}
				for _, p := range ps {
					if p.res.Err != nil {
						t.Fatal(p.res.Err)
					}
				}
			})
		}
	}
}

// benchmarkStage times one stage of a single implant's pipeline: the
// other stages still run every iteration (the pipeline's state must
// advance coherently) but outside the timer window.
func benchmarkStage(b *testing.B, col string) {
	cfg := DefaultConfig()
	cfg.Implants = 1
	p, err := NewPipeline(cfg, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	target := -1
	for i, s := range p.stages {
		if s.Name() == col {
			target = i
		}
	}
	if target < 0 {
		b.Fatalf("no %q stage", col)
	}
	for i := 0; i < 64; i++ {
		if err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		p.tk = Tick{N: p.tick, Res: &p.res}
		p.tick++
		for j := 0; j < target; j++ {
			if err := p.stages[j].Step(&p.tk); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		err := p.stages[target].Step(&p.tk)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for j := target + 1; j < len(p.stages); j++ {
			if err := p.stages[j].Step(&p.tk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
}

func BenchmarkStageStep(b *testing.B) {
	b.Run("source", func(b *testing.B) { benchmarkStage(b, "source") })
	b.Run("transport", func(b *testing.B) { benchmarkStage(b, "transport") })
	b.Run("receiver", func(b *testing.B) { benchmarkStage(b, "receiver") })
}
