package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// fileMetric is one metric entry of BENCHMARK.json.
type fileMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile pins the program's metric names,
// units and workloads to BENCHMARK.json.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(kind string, defs []metricDef, file []fileMetric) {
		if len(defs) != len(file) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(file))
		}
		for i, d := range defs {
			if got := (fileMetric{d.name, d.unit, d.better}); got != file[i] {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", kind, i, got, file[i])
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// smokeRun runs one short workload and returns its commentary and
// result.
func smokeRun(t *testing.T, workload string, trace bool) (string, *result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := runWorkload(options{
		workload: workload,
		seed:     DefaultSeed,
		seconds:  0.5,
		trace:    trace,
		short:    true,
		out:      &buf,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d failed\n%s", workload, res.Correct, res.Failed, res.Attempted, buf.String())
	}
	return buf.String(), res
}

// deterministic lists, per workload, the per-layer metrics that are
// counts fixed by the seed.
var deterministic = map[string][]string{
	"fleet-decode": {"decode_rmse", "decode.steps", "decode.macs_per_step", "adapt.refits",
		"comm.retransmits_per_frame", "comm.fec_corrected_per_kframe", "wearable.accept_ratio", "wearable.concealed_frac"},
	"fleet-link": {"wearable.accept_ratio"},
}

var referenceLine = regexp.MustCompile(`(?m)^reference: .*$`)

// TestSmoke runs a short mode of every workload: every named metric is
// printed with its unit, the outputs check out, and the counts fixed by
// the seed repeat exactly between two runs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, w := range []string{"fleet-decode", "fleet-link", "serve-stream", "session-churn"} {
		t.Run(w, func(t *testing.T) {
			log1, res := smokeRun(t, w, false)
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
			if !strings.Contains(log1, `"num_cpu"`) || !strings.Contains(log1, `"spin_ratio"`) {
				t.Errorf("no environment block:\n%s", log1)
			}

			log2, traced := smokeRun(t, w, true)
			_, again := smokeRun(t, w, true)
			for _, m := range perLayer {
				got, ok := traced.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.name, got, m.unit)
				}
				if contains(m.on, w) && !strings.Contains(log2, m.name+" ") {
					t.Errorf("per-layer %s not listed with its mapping:\n%s", m.name, log2)
				}
			}
			for _, name := range deterministic[w] {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b || a == 0 {
					t.Errorf("%s: %v then %v, want equal and non-zero", name, a, b)
				}
			}
			if strings.HasPrefix(w, "fleet-") {
				r1, r2 := referenceLine.FindString(log1), referenceLine.FindString(log2)
				if r1 == "" || r1 != r2 {
					t.Errorf("reference lines differ:\n%s\n%s", r1, r2)
				}
				if !strings.Contains(log2, "attribution over") {
					t.Errorf("no attribution line:\n%s", log2)
				}
			}
		})
	}
}

// TestQuantile pins the interpolation the latency metrics use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
