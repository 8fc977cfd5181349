// Command perfbench is the repository's benchmark: one command that runs
// one of four workloads against the fleet simulator and the serving
// stack, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// they are the per-layer metrics of a separate traced run. Everything
// before the last line is commentary: the environment block, the
// fleet attribution and the per-layer map. Run it from the repository
// root with `bash perfbench/run.sh --workload fleet-decode --seed 1
// --seconds 10 --trace 0`; README.md explains the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// DefaultSeed is the seed the pinned digests were recorded with;
// HeldOutSeed is kept out of tuning and used to check claims.
const (
	DefaultSeed = 1
	HeldOutSeed = 20261017
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks set-up repetitions and verification for the smoke
	// test; the measured window is still seconds long.
	short bool
	out   io.Writer // commentary lines
}

// outcome is what a workload hands back: its operation counts, whether
// every correctness check held, and the metric values by name.
type outcome struct {
	attempted int64
	failed    int64
	// problems lists the correctness checks that failed, for the log.
	problems []string
	values   map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records n failed operations with one reason.
func (o *outcome) failN(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation, failing it when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

type workloadFunc func(opts options, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fleet-decode":  runFleet,
	"fleet-link":    runFleet,
	"serve-stream":  runServeStream,
	"session-churn": runChurn,
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fleet-decode, fleet-link, serve-stream or session-churn")
	seed := fs.Int64("seed", DefaultSeed, "workload seed; the inputs are generated from it")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runWorkload(options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		out:      stdout,
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runWorkload runs one workload and assembles its result object.
func runWorkload(opts options) (*result, error) {
	fn, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want fleet-decode, fleet-link, serve-stream or session-churn)", opts.workload)
	}
	if opts.seconds <= 0 {
		return nil, errors.New("seconds must be positive")
	}
	env := probeEnvironment()
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(opts.out, "env %s\n", envLine)
	fmt.Fprintf(opts.out, "workload %s seed %d (default %d, held-out %d) seconds %g trace %v\n",
		opts.workload, opts.seed, DefaultSeed, HeldOutSeed, opts.seconds, opts.trace)

	tr := newTracer(opts.trace)
	out, err := fn(opts, tr)
	if err != nil {
		return nil, err
	}
	if opts.trace {
		tr.summary(opts.out)
		if path, err := tr.writeFile(opts.workload, opts.seed); err != nil {
			fmt.Fprintf(opts.out, "spans: not written: %v\n", err)
		} else {
			fmt.Fprintf(opts.out, "spans: written to %s\n", path)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(opts.out, "FAILED %s\n", p)
	}

	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	set := endToEnd
	if opts.trace {
		set = perLayer
		printLayerMap(opts.out, opts.workload, out.values)
	}
	for _, m := range set {
		v, ok := out.values[m.name]
		if !ok && !opts.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", opts.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// environment is the block printed ahead of every result, so a figure
// is never read without the machine that produced it.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	// SpinRatio is the wall time of two goroutines each spinning a
	// fixed loop over the time of one: 1 on two free cores, 2 when only
	// one core's worth of capacity is available.
	SpinRatio float64 `json:"spin_ratio"`
	// ParallelCapacity is 2/SpinRatio, the cores the process can use.
	ParallelCapacity float64 `json:"parallel_capacity"`
}

func probeEnvironment() environment {
	ratio := spinRatio()
	return environment{
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		Commit:           gitCommit(),
		SpinRatio:        ratio,
		ParallelCapacity: 2 / ratio,
	}
}

// spinSink keeps the spin loop from being optimized away.
var spinSink [2]uint64

// spinRatio times a fixed integer loop on one goroutine, then on two at
// once, and returns the ratio (median of three tries).
func spinRatio() float64 {
	spin := func(slot int) {
		x := uint64(slot + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink[slot] = x
	}
	var ratios []float64
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		spin(0)
		one := time.Since(t0)
		t0 = time.Now()
		done := make(chan struct{})
		go func() { spin(1); close(done) }()
		spin(0)
		<-done
		two := time.Since(t0)
		ratios = append(ratios, float64(two)/float64(one))
	}
	return median(ratios)
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
