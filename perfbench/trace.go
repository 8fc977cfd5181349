package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"mindful/internal/obs"
)

// spanCapacity bounds the spans one traced run keeps; a run records a
// few thousand, so nothing is overwritten; the summary line reports
// any span that was.
const spanCapacity = 1 << 14

// tracer records spans around calls into the system with an
// obs.Tracer. Recording is on while live holds the tracer and off while
// it holds nil: obs.Tracer's methods are no-ops on a nil receiver, so an
// untraced call pays one atomic load. A traced run clears live for its
// untraced half; an untraced run never sets it.
type tracer struct {
	spans *obs.Tracer // nil on an untraced run
	live  atomic.Pointer[obs.Tracer]
}

func newTracer(on bool) *tracer {
	t := &tracer{}
	if on {
		t.spans = obs.NewTracer(spanCapacity)
		t.live.Store(t.spans)
	}
	return t
}

// record turns recording on or off; it stays off on an untraced run.
func (t *tracer) record(on bool) {
	if on {
		t.live.Store(t.spans)
	} else {
		t.live.Store(nil)
	}
}

// begin opens a span under parent and returns its id (0 while not
// recording). Spans of one operation (a session lifecycle) carry its
// id as the "op" attribute.
func (t *tracer) begin(name string, parent obs.SpanID, op int64) obs.SpanID {
	live := t.live.Load()
	id := live.Start(name, parent)
	if op != 0 {
		live.Attr(id, "op", float64(op))
	}
	return id
}

// end closes span id, also when recording was turned off since begin.
func (t *tracer) end(id obs.SpanID) { t.spans.End(id) }

// durations returns the closed durations of every span with the given
// name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans.Snapshot() {
		if s.Name == name && s.End != 0 {
			out = append(out, ms(s.Duration()))
		}
	}
	return out
}

// summary prints, per span name, the span count, the summed duration
// and the summed self time — each span's duration minus the part of it
// its child spans cover — in ms, longest first.
func (t *tracer) summary(w io.Writer) {
	type row struct {
		name        string
		n           int
		total, self int64
	}
	spans := t.spans.Snapshot()
	child := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*row{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.self += s.End - s.Start - child[s.ID]
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total > sorted[j].total })
	fmt.Fprintf(w, "spans by layer (count, total ms, self ms); %d started, %d overwritten while open\n",
		t.spans.Started(), t.spans.LostOpen())
	for _, r := range sorted {
		fmt.Fprintf(w, "  %-36s %7d %12.3f %12.3f\n", r.name, r.n, float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// writeFile writes the spans as JSON lines under the build directory
// and returns the path.
func (t *tracer) writeFile(workload string, seed int64) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench-spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := t.spans.WriteJSONL(w); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
