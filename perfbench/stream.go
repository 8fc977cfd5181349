package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mindful/internal/cluster"
	"mindful/internal/serve"
)

// serve-stream: long-lived sessions, cycling through the decoder kinds,
// run on the paced 2-shard cluster while two subscribers — one in frame
// mode, one in decoded mode, each on its own connection — read through
// the front tier's redirect plane. Delivery latency is the client's read
// time minus the publish stamp in the record.
const (
	// streamTick paces every session's tick loop; the sleep overshoots
	// by up to a millisecond, so a longer interval keeps the frame rate
	// steady.
	streamTick = 4 * time.Millisecond
	// streamSessions cycles through decoderKinds; with streamTick it
	// sets the load.
	streamSessions = 12
	streamWarmup   = 500 * time.Millisecond
	// frameSub and decodedSub index decoderKinds: the frame-mode
	// subscriber reads the decoder-less session, the decoded-mode one
	// the Kalman session.
	frameSub   = 0
	decodedSub = 1
)

// reader is one subscriber: its connection and what it received.
type reader struct {
	key    string
	mode   string
	conn   net.Conn
	br     *bufio.Reader
	ticks  []uint64
	recvNs []int64
	latNs  []int64
	n      atomic.Int64 // records read so far
}

// read consumes records until the connection closes.
func (r *reader) read(tr *tracer) {
	for {
		sp := tr.begin("serve.ReadRecord", 0, 0)
		rec, err := serve.ReadRecord(r.br)
		tr.end(sp)
		if err != nil {
			return // the connection was closed after the last record
		}
		now := time.Now().UnixNano()
		r.ticks = append(r.ticks, rec.Tick)
		r.recvNs = append(r.recvNs, now)
		r.latNs = append(r.latNs, now-rec.PublishNs)
		r.n.Add(1)
	}
}

// streamSetup is a started cluster with its sessions created paused and
// both subscribers attached.
type streamSetup struct {
	ft      *frontTier
	keys    []string
	seeds   []int64
	readers []*reader
}

func (s *streamSetup) close() {
	for _, r := range s.readers {
		if r.conn != nil {
			r.conn.Close()
		}
	}
	s.ft.close()
}

func setupStream(seed int64, tr *tracer) (*streamSetup, error) {
	ft, err := startFrontTier(streamTick, tr)
	if err != nil {
		return nil, err
	}
	s := &streamSetup{ft: ft}
	for i := 0; i < streamSessions; i++ {
		kind := decoderKinds[i%len(decoderKinds)]
		sd := simSeed(seed, uint64(100+i))
		info, err := ft.create(sessionConfig(kind, sd), true, 0)
		if err != nil {
			s.close()
			return nil, err
		}
		s.keys = append(s.keys, info.Key)
		s.seeds = append(s.seeds, sd)
	}
	for _, sub := range []struct {
		idx  int
		mode string
	}{{frameSub, ""}, {decodedSub, "decoded"}} {
		r := &reader{key: s.keys[sub.idx], mode: sub.mode}
		sp := tr.begin("serve.SubscribeFollow", 0, 0)
		r.conn, r.br, err = serve.SubscribeFollow(ft.c.StreamAddr(), r.key, sub.mode, 4)
		tr.end(sp)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("subscribe %s: %w", r.key, err)
		}
		s.readers = append(s.readers, r)
	}
	return s, nil
}

func runServeStream(opts options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	v := out.values

	// Set-up: cluster start, session creates (fits included) and
	// subscribes, several times; the last set-up is the one measured.
	reps := 9
	if opts.short {
		reps = 1
	}
	var s *streamSetup
	build := func() (err error) {
		s, err = setupStream(opts.seed, tr)
		return err
	}
	if err := measureSetup(opts.out, v, reps, build, func() { s.close() }); err != nil {
		return nil, err
	}
	defer s.close()

	var wg sync.WaitGroup
	for _, r := range s.readers {
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			r.read(tr)
		}(r)
	}
	for _, key := range s.keys {
		if err := s.ft.lifecycle("resume", key, 0); err != nil {
			return nil, err
		}
	}
	time.Sleep(streamWarmup)

	// The measured window. A traced run polls queue depths through both
	// halves and records spans in its second half only, so the halves
	// differ by tracing alone.
	half := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		half /= 2
	}
	queueMax := 0
	wait := func(d time.Duration) {
		if opts.trace {
			queueMax = max(queueMax, s.pollQueues(d))
		} else {
			time.Sleep(d)
		}
	}
	tr.record(false)
	pub0, err := s.ft.published()
	if err != nil {
		return nil, err
	}
	mem := readMem()
	c0 := cpuTime()
	t0 := time.Now()
	stopRef := sampleRef(100 * time.Millisecond)
	wait(half)
	tMid := time.Now()
	if opts.trace {
		tr.record(true)
		wait(half)
	}
	t1 := time.Now()
	ref := stopRef()
	cpu := cpuTime() - c0
	pub1, err := s.ft.published()
	if err != nil {
		return nil, err
	}
	frames := float64(pub1 - pub0)
	mem.since(v, frames)

	// Stop: pause every session, let the subscribers drain to the last
	// published tick, then close them.
	infos, err := s.stop()
	if err != nil {
		return nil, err
	}
	wg.Wait()

	window := t1.Sub(t0).Seconds()
	v["frames_per_cpu_s"] = frames / cpu.Seconds()
	v["frames_per_ref_cpu_s"] = v["frames_per_cpu_s"] * refNominal / ref
	v["host.ref_passes_per_cpu_s"] = ref
	v["rss_peak_mb"] = peakRSSMB()
	// The share of one core the serving stack used in the window: the
	// load is sized to keep it near half the measured capacity.
	fmt.Fprintf(opts.out, "load: %.3f of one core (CPU s per wall s)\n", cpu.Seconds()/window)
	lats, latsTraced := s.latencies(t0, tMid, t1)
	if !opts.trace {
		lats = append(lats, latsTraced...)
	}
	v["frames_per_wall_s"] = frames / window
	v["delivery_p50_ms"] = quantile(lats, 0.5)
	v["delivery_p99_ms"] = quantile(lats, 0.99)
	fmt.Fprintf(opts.out, "window %.3f s, %.3f CPU s: %d frames published by %d sessions; %d records timed, delivery p50 %.4g ms p99 %.4g ms\n",
		window, cpu.Seconds(), pub1-pub0, len(s.keys), len(lats), v["delivery_p50_ms"], v["delivery_p99_ms"])

	s.checkContiguous(out, infos)
	steps := s.verify(out, infos)

	if opts.trace {
		v["trace_overhead_pct"] = pct(quantile(latsTraced, 0.5), v["delivery_p50_ms"])
		for kind, us := range steps {
			v["serve.step_us."+kind] = us
		}
		v["serve.ticks_per_s_per_session"] = frames / window / float64(len(s.keys))
		v["serve.queue_depth_max"] = float64(queueMax)
		sts, err := s.ft.shardStats()
		if err != nil {
			return nil, err
		}
		var n, p50, p99, dropped float64
		for _, st := range sts {
			w := float64(st.Delivered)
			n += w
			p50 += w * st.DeliveryLatencyP50Ms
			p99 += w * st.DeliveryLatencyP99Ms
			dropped += float64(st.Dropped)
		}
		if n > 0 {
			v["serve.server_delivery_p50_ms"] = p50 / n
			v["serve.server_delivery_p99_ms"] = p99 / n
		}
		// The shards' histograms cover every record written since they
		// started, so the client side is taken over every record read.
		v["client.read_ms_p50"] = quantile(s.allLatencies(), 0.5) - v["serve.server_delivery_p50_ms"]
		v["serve.dropped_frames"] = dropped
	}
	return out, nil
}

// pollQueues samples the subscribed sessions' queue depths at 10 Hz for
// d and returns the deepest queue seen.
func (s *streamSetup) pollQueues(d time.Duration) int {
	deepest := 0
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for _, r := range s.readers {
			var info cluster.Info
			if err := s.ft.call("cluster.info", http.MethodGet, s.ft.base+"/api/sessions/"+r.key, nil, &info, 0); err != nil {
				continue
			}
			var st serve.SessionStats
			url := s.ft.shardOf[info.Shard] + "/api/sessions/" + info.ID + "/stats"
			if err := s.ft.call("serve.session_stats", http.MethodGet, url, nil, &st, 0); err != nil {
				continue
			}
			for _, q := range st.Queues {
				deepest = max(deepest, q.Depth)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return deepest
}

// stop pauses every session, waits until each subscriber has read
// every record its session published, closes the subscribers and
// returns the sessions' final infos.
func (s *streamSetup) stop() ([]cluster.Info, error) {
	infos := make([]cluster.Info, len(s.keys))
	for i, key := range s.keys {
		if err := s.ft.lifecycle("pause", key, 0); err != nil {
			return nil, err
		}
		info, err := s.ft.info(key, 0)
		if err != nil {
			return nil, err
		}
		infos[i] = info
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range s.readers {
		for r.n.Load() < r.expected(infos) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for _, r := range s.readers {
		r.conn.Close()
	}
	return infos, nil
}

// latencies splits the delivery latencies (ms) of records received in
// [t0, tMid) and [tMid, t1).
func (s *streamSetup) latencies(t0, tMid, t1 time.Time) (first, second []float64) {
	a, m, b := t0.UnixNano(), tMid.UnixNano(), t1.UnixNano()
	for _, r := range s.readers {
		for i, at := range r.recvNs {
			ms := float64(r.latNs[i]) / 1e6
			switch {
			case at >= a && at < m:
				first = append(first, ms)
			case at >= m && at < b:
				second = append(second, ms)
			}
		}
	}
	return first, second
}

// allLatencies returns the delivery latency (ms) of every record the
// subscribers read, warm-up and drain included.
func (s *streamSetup) allLatencies() []float64 {
	var out []float64
	for _, r := range s.readers {
		for _, ns := range r.latNs {
			out = append(out, float64(ns)/1e6)
		}
	}
	return out
}

// checkContiguous requires every subscriber to have seen its session's
// records without a gap: frame ticks 0,1,2,… up to the last published
// tick; decoded ticks strictly increasing (a bin closes after BinTicks
// usable frames, so its stride varies), as many as were published.
// Each expected record is an attempted operation; each missing or
// out-of-order one, and every dropped frame or evicted subscriber, is a
// failed one.
func (s *streamSetup) checkContiguous(out *outcome, infos []cluster.Info) {
	for _, r := range s.readers {
		expected := r.expected(infos)
		out.attempted += expected
		for i, t := range r.ticks {
			switch {
			case r.mode == "" && t != uint64(i):
				out.fail("frame subscriber on %s: record %d has tick %d", r.key, i, t)
			case r.mode == "decoded" && i > 0 && t <= r.ticks[i-1]:
				out.fail("decoded subscriber on %s: tick %d follows %d", r.key, t, r.ticks[i-1])
			}
		}
		if missing := expected - int64(len(r.ticks)); missing != 0 {
			out.failN(abs64(missing), "%s subscriber on %s: %d records received, %d published", r.modeName(), r.key, len(r.ticks), expected)
		}
	}
	for _, info := range infos {
		if n := info.Dropped + info.Evicted; n > 0 {
			out.failN(n, "session %s: %d frames dropped, %d subscribers evicted", info.Key, info.Dropped, info.Evicted)
		}
	}
}

// expected is the number of records the subscriber's session published:
// one frame per tick, or one decoded record per bin.
func (r *reader) expected(infos []cluster.Info) int64 {
	if r.mode == "decoded" {
		return infos[decodedSub].DecodedPublished
	}
	return int64(infos[frameSub].Tick)
}

func (r *reader) modeName() string {
	if r.mode == "" {
		return "frame"
	}
	return r.mode
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// verify replays every session in-process to the tick it was paused at
// and requires the served frame and decode digests to match. It returns
// the in-process step cost per decoder kind in µs.
func (s *streamSetup) verify(out *outcome, infos []cluster.Info) map[string]float64 {
	steps := map[string]float64{}
	for i, info := range infos {
		kind := decoderKinds[i%len(decoderKinds)]
		sc := sessionConfig(kind, s.seeds[i])
		d, dd, _, step, err := replay(sc, info.Tick, s.ft.tr)
		if err != nil {
			out.check(false, "replay %s: %v", info.Key, err)
			continue
		}
		out.check(d == info.Digest && dd == info.DecodeDigest,
			"session %s (%s) at tick %d: served digests %s/%s, replay %s/%s", info.Key, kind, info.Tick, info.Digest, info.DecodeDigest, d, dd)
		steps[kind] = float64(step.Nanoseconds()) / 1e3
	}
	return steps
}
