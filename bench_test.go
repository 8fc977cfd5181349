// Benchmarks: one per paper artifact (Table 1, Figs. 4–7 and 9–12) plus
// micro-benchmarks for the substrates that back them. Run with
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks measure full regeneration of each artifact so
// the cost of the experiment harness itself is tracked over time.
package mindful_test

import (
	"testing"

	"mindful"
	"mindful/internal/comm"
	"mindful/internal/dnnmodel"
	"mindful/internal/dsp"
	"mindful/internal/experiments"
	"mindful/internal/fixed"
	"mindful/internal/mac"
	"mindful/internal/neural"
	"mindful/internal/sched"
	"mindful/internal/thermal"
	"mindful/internal/units"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 11 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig4(); len(rows) != 12 {
			b.Fatal("bad fig4")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(experiments.Naive)
		experiments.Fig5(experiments.HighMargin)
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(experiments.Naive)
		experiments.Fig6(experiments.HighMargin)
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := experiments.DefaultFig7Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig9(); len(rows) != 12 {
			b.Fatal("bad fig9")
		}
	}
}

func BenchmarkFig10MLP(b *testing.B) {
	tmpl := dnnmodel.MLP()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(tmpl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10DNCNN(b *testing.B) {
	tmpl := dnnmodel.DNCNN()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(tmpl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the DESIGN.md design-choice studies.

func BenchmarkAblateDepthPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateDepthPolicy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateSensingSplit(b *testing.B) {
	fracs := []float64{0.3, 0.4, 0.5}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateSensingSplit(fracs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateQAMLoss(b *testing.B) {
	losses := []float64{6, 8, 10}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateQAMLoss(losses); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateScheduling(b *testing.B) {
	counts := []int{128, 1024, 2048}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateScheduling(counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateFluxSplit(b *testing.B) {
	splits := []float64{0.3, 0.5, 0.7}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateFluxSplit(splits); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benchmarks.

func BenchmarkThermalSteadyState(b *testing.B) {
	m := thermal.DefaultModel()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(thermal.SafeDensity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerMLP1024(b *testing.B) {
	m, err := dnnmodel.MLP().Scale(1024)
	if err != nil {
		b.Fatal(err)
	}
	deadline := sched.DeadlineFor(units.Kilohertz(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sched.Best(m, deadline, mac.NanGate45)
		if err != nil || !r.Feasible {
			b.Fatal("schedule failed")
		}
	}
}

func BenchmarkQAMRequiredEbN0(b *testing.B) {
	q := comm.NewQAM(6)
	for i := 0; i < b.N; i++ {
		if e := q.RequiredEbN0(1e-6); e <= 0 {
			b.Fatal("bad Eb/N0")
		}
	}
}

func BenchmarkModem16QAM(b *testing.B) {
	modem, err := comm.NewModem(comm.NewQAM(4))
	if err != nil {
		b.Fatal(err)
	}
	bits := make([]byte, 4096)
	for i := range bits {
		bits[i] = byte(i & 1)
	}
	b.SetBytes(int64(len(bits) / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms, err := modem.Modulate(bits)
		if err != nil {
			b.Fatal(err)
		}
		modem.Demodulate(syms)
	}
}

func BenchmarkPacketizer1024ch(b *testing.B) {
	p, err := comm.NewPacketizer(10)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]uint16, 1024)
	for i := range samples {
		samples[i] = uint16(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := p.Encode(samples)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := comm.Decode(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeuralGenerator128ch(b *testing.B) {
	g, err := neural.New(neural.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkSpikeDetection(b *testing.B) {
	cfg := neural.DefaultConfig()
	cfg.Channels = 1
	cfg.ActiveFraction = 1
	g, err := neural.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	block := g.NextBlock(4000)
	trace := make([]float64, len(block))
	for i := range block {
		trace[i] = block[i][0]
	}
	det := dsp.NewDetector(cfg.SampleRate.Hz())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(trace)
	}
}

func BenchmarkFixedDot256(b *testing.B) {
	xs := make([]fixed.Value, 256)
	ys := make([]fixed.Value, 256)
	for i := range xs {
		xs[i] = fixed.FromFloat(0.1, fixed.Q7)
		ys[i] = fixed.FromFloat(-0.1, fixed.Q7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixed.Dot(xs, ys, fixed.Q7)
	}
}

func BenchmarkImplantTickCommCentric(b *testing.B) {
	cfg := mindful.DefaultImplantConfig()
	im, err := mindful.NewImplant(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := im.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImplantTickCommCentricObserved(b *testing.B) {
	cfg := mindful.DefaultImplantConfig()
	im, err := mindful.NewImplant(cfg)
	if err != nil {
		b.Fatal(err)
	}
	im.SetObserver(mindful.NewObserver())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := im.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImplantTickComputeCentric(b *testing.B) {
	cfg := mindful.DefaultImplantConfig()
	cfg.Flow = mindful.ComputeCentric
	net, err := mindful.NewRandomMLP(1, cfg.Neural.Channels, 64, 40)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Network = net
	im, err := mindful.NewImplant(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := im.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSNNStep(b *testing.B) {
	net, err := mindful.NewRandomSNN(1, mindful.DefaultLIF(), 128, 64, 8)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := mindful.NewSpikeEncoder(2, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]float64, 128)
	for i := range values {
		values[i] = 0.8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Step(enc.Encode(values)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaRiceEncode(b *testing.B) {
	samples := make([]uint16, 4000)
	cur := 512
	for i := range samples {
		cur += i%7 - 3
		samples[i] = uint16(cur)
	}
	b.SetBytes(int64(len(samples) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mindful.DeltaRiceEncode(samples, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLossyLinkTransport(b *testing.B) {
	link, err := mindful.NewLossyLink(1e-4, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1294) // a 1024-channel frame
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Transport(buf)
	}
}
