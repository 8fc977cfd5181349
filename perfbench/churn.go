package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"mindful/internal/serve/checkpoint"
)

// session-churn: an open-loop schedule of session lifecycles through
// the front tier's HTTP API — create, run briefly, migrate to the other
// shard, read the session's digest, delete. Arrivals are evenly spaced
// with seeded jitter; every call is timed from its scheduled send time,
// so a stall makes the calls queued behind it late, and the
// generator's own lateness is reported. At most one worker per CPU
// sends calls, over as many shared keep-alive connections.
const (
	churnRate = 16 // lifecycles per second
	churnTick = 2 * time.Millisecond
	// churnTicks is a session's run length: it is still running when it
	// migrates churnMigrate after its create was due, and done when it
	// is deleted churnDelete after the migrate was due.
	churnTicks   = 32
	churnMigrate = 30 * time.Millisecond
	churnDelete  = 200 * time.Millisecond
)

// churnKinds is the decoder rotation of successive lifecycles. Create
// latency falls in one cluster per decoder; Kalman appears twice so the
// median falls inside the Kalman cluster and the p90 inside the Fixed
// one, never in a gap between clusters, where a quantile would jump
// between runs. The median sits on a short call, which hypervisor
// steal rarely hits.
var churnKinds = []string{"none", "kalman", "wiener", "fixed", "kalman"}

// call is one scheduled control-plane call.
type call struct {
	verb  string // create, migrate, delete
	life  *life
	sched time.Time
	sent  time.Time
	done  time.Time
	err   error
}

// life is one session lifecycle.
type life struct {
	idx   int
	kind  string
	seed  int64
	op    int64 // span op id
	key   string
	shard string
	info  *finalInfo
	calls []*call
}

// finalInfo is what the pre-delete info read returns: the session's
// tick (its frames, wherever they ran) and its digests.
type finalInfo struct {
	tick                 int
	digest, decodeDigest string
}

// schedule is the pending calls ordered by send time, and the delays
// after which a lifecycle's migrate and delete fall due.
type schedule struct {
	migrateAfter, deleteAfter time.Duration

	mu      sync.Mutex
	pending []*call
	open    int // lifecycles not yet finished
	// changed is closed and replaced whenever pending or open changes,
	// waking every waiting worker.
	changed chan struct{}
}

func newSchedule(open int, migrateAfter, deleteAfter time.Duration) *schedule {
	return &schedule{open: open, migrateAfter: migrateAfter, deleteAfter: deleteAfter, changed: make(chan struct{})}
}

// changedLocked wakes the waiting workers. Callers hold mu.
func (s *schedule) changedLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

func (s *schedule) push(c *call) {
	s.mu.Lock()
	i := sort.Search(len(s.pending), func(i int) bool { return s.pending[i].sched.After(c.sched) })
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = c
	s.changedLocked()
	s.mu.Unlock()
}

// next returns the earliest call once it is due, or nil when every
// lifecycle has finished.
func (s *schedule) next() *call {
	for {
		s.mu.Lock()
		if s.open == 0 {
			s.mu.Unlock()
			return nil
		}
		wait := time.Second
		if len(s.pending) > 0 {
			c := s.pending[0]
			if wait = time.Until(c.sched); wait <= 0 {
				s.pending = s.pending[1:]
				s.mu.Unlock()
				return c
			}
		}
		changed := s.changed
		s.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-changed:
			t.Stop()
		}
	}
}

func (s *schedule) finish() {
	s.mu.Lock()
	s.open--
	s.changedLocked()
	s.mu.Unlock()
}

// churnLives generates n lifecycles starting at start: the i-th is due
// at start + (i + u)/rate with u uniform in [-0.3, 0.3].
func churnLives(seed int64, n int, start time.Time) ([]*life, []*call) {
	rng := rand.New(rand.NewSource(simSeed(seed, 2)))
	lives := make([]*life, n)
	creates := make([]*call, n)
	for i := range lives {
		u := rng.Float64()*0.6 - 0.3
		at := start.Add(time.Duration((float64(i) + 0.5 + u) / churnRate * float64(time.Second)))
		l := &life{idx: i, kind: churnKinds[i%len(churnKinds)], seed: simSeed(seed, uint64(1000+i))}
		c := &call{verb: "create", life: l, sched: at}
		l.calls = append(l.calls, c)
		lives[i], creates[i] = l, c
	}
	return lives, creates
}

// exec performs one call and schedules the lifecycle's next one.
func (ft *frontTier) exec(c *call, s *schedule) {
	l := c.life
	c.sent = time.Now()
	switch c.verb {
	case "create":
		info, err := ft.create(churnSession(l), false, l.op)
		l.key, l.shard, c.err = info.Key, info.Shard, err
	case "migrate":
		c.err = ft.migrate(l.key, ft.other(l.shard), l.op)
	case "delete":
		info, err := ft.info(l.key, l.op)
		if err == nil {
			l.info = &finalInfo{tick: info.Tick, digest: info.Digest, decodeDigest: info.DecodeDigest}
		}
		c.err = err
		if derr := ft.remove(l.key, l.op); c.err == nil {
			c.err = derr
		}
	}
	c.done = time.Now()
	next := map[string]string{"create": "migrate", "migrate": "delete"}[c.verb]
	if c.err != nil || next == "" {
		s.finish()
		return
	}
	// The next call is due a fixed delay after this one was due, or
	// when this one finished if it ran that late.
	at := c.sched.Add(s.migrateAfter)
	if next == "delete" {
		at = c.sched.Add(s.deleteAfter)
	}
	if c.done.After(at) {
		at = c.done
	}
	nc := &call{verb: next, life: l, sched: at}
	l.calls = append(l.calls, nc)
	s.push(nc)
}

// churnSession is a lifecycle's session config.
func churnSession(l *life) checkpoint.SessionConfig {
	sc := sessionConfig(l.kind, l.seed)
	sc.Ticks = churnTicks
	return sc
}

// runLives drives the lifecycles to completion with the given workers
// and returns when every one has finished.
func (ft *frontTier) runLives(lives []*life, creates []*call, workers int, migrateAfter, deleteAfter time.Duration) {
	s := newSchedule(len(lives), migrateAfter, deleteAfter)
	for _, c := range creates {
		s.push(c)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := s.next(); c != nil; c = s.next() {
				ft.exec(c, s)
			}
		}()
	}
	wg.Wait()
}

// setupChurn starts the cluster and warms it with one lifecycle per
// decoder kind, each call sent as soon as the previous one returns.
func setupChurn(seed int64, tr *tracer) (*frontTier, error) {
	ft, err := startFrontTier(churnTick, tr)
	if err != nil {
		return nil, err
	}
	lives, creates := churnLives(seed^0x5eed, len(decoderKinds), time.Now())
	for i, l := range lives {
		l.kind = decoderKinds[i]
		creates[i].sched = time.Now()
	}
	ft.runLives(lives, creates, 1, 0, 0)
	for _, l := range lives {
		for _, c := range l.calls {
			if c.err != nil {
				ft.close()
				return nil, fmt.Errorf("warm-up %s of %s session: %w", c.verb, l.kind, c.err)
			}
		}
	}
	return ft, nil
}

func runChurn(opts options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	v := out.values
	reps := 9
	if opts.short {
		reps = 1
	}
	var ft *frontTier
	build := func() (err error) {
		ft, err = setupChurn(opts.seed, tr)
		return err
	}
	if err := measureSetup(opts.out, v, reps, build, func() { ft.close() }); err != nil {
		return nil, err
	}
	defer ft.close()

	n := int(opts.seconds * churnRate)
	if n < len(churnKinds) {
		n = len(churnKinds)
	}
	tr.record(false)
	start := time.Now().Add(10 * time.Millisecond)
	lives, creates := churnLives(opts.seed, n, start)
	traceFrom := n
	if opts.trace {
		// The second half of the schedule is traced.
		traceFrom = n / 2
		go func() {
			time.Sleep(time.Until(creates[traceFrom].sched))
			tr.record(true)
		}()
	}
	for _, l := range lives[traceFrom:] {
		l.op = int64(l.idx + 1)
	}
	mem := readMem()
	c0 := cpuTime()
	stopRef := sampleRef(100 * time.Millisecond)
	workers := runtime.NumCPU() // the client's budget: one goroutine per CPU
	ft.runLives(lives, creates, workers, churnMigrate, churnDelete)
	end := time.Now()
	ref := stopRef()
	cpu := cpuTime() - c0
	tr.record(true)

	// Latencies from the scheduled send time, per verb and half.
	lat := map[string][2][]float64{}
	var lateness, deleteSvc []float64
	var frames int64
	for _, l := range lives {
		half := 0
		if l.idx >= traceFrom {
			half = 1
		}
		for _, c := range l.calls {
			out.attempted++
			if c.err != nil {
				out.fail("%s %s (%s): %v", c.verb, l.key, l.kind, c.err)
				continue
			}
			if c.sent.IsZero() {
				continue
			}
			x := lat[c.verb]
			x[half] = append(x[half], ms(c.done.Sub(c.sched)))
			lat[c.verb] = x
			lateness = append(lateness, ms(c.sent.Sub(c.sched)))
			if c.verb == "delete" {
				deleteSvc = append(deleteSvc, ms(c.done.Sub(c.sent)))
			}
		}
		if l.info != nil {
			frames += int64(l.info.tick)
		}
	}
	window := end.Sub(start).Seconds()
	mem.since(v, float64(frames))
	// The untraced calls: all of them, or the first half of a traced run.
	untraced := func(verb string) []float64 {
		if opts.trace {
			return lat[verb][0]
		}
		return append(lat[verb][0], lat[verb][1]...)
	}
	createLat := untraced("create")
	v["frames_per_cpu_s"] = float64(frames) / cpu.Seconds()
	v["frames_per_ref_cpu_s"] = v["frames_per_cpu_s"] * refNominal / ref
	v["host.ref_passes_per_cpu_s"] = ref
	v["frames_per_wall_s"] = float64(frames) / window
	v["rss_peak_mb"] = peakRSSMB()
	// The share of one core the schedule used: the arrival rate is
	// sized to keep it near half the measured capacity.
	fmt.Fprintf(opts.out, "load: %.3f of one core (CPU s per wall s)\n", cpu.Seconds()/window)
	v["create_p50_ms"] = quantile(createLat, 0.5)
	v["create_p90_ms"] = quantile(createLat, 0.9)
	v["migrate_p50_ms"] = quantile(untraced("migrate"), 0.5)
	fmt.Fprintf(opts.out, "%d lifecycles over %.3f s (%.3f CPU s) with %d workers: create p50 %.4g ms p90 %.4g ms (%d samples), migrate p50 %.4g ms, lateness p99 %.4g ms, %d frames\n",
		n, window, cpu.Seconds(), workers, v["create_p50_ms"], v["create_p90_ms"], len(createLat), v["migrate_p50_ms"], quantile(lateness, 0.99), frames)

	fits := verifyLives(lives, out, tr)

	if opts.trace {
		v["trace_overhead_pct"] = pct(quantile(lat["create"][1], 0.5), v["create_p50_ms"])
		v["cluster.delete_ms"] = quantile(deleteSvc, 0.5)
		v["loadgen.lateness_ms_p99"] = quantile(lateness, 0.99)
		v["cluster.ctl_retries"] = float64(ft.observe.Metrics.Counter("cluster_ctl_retries_total").Value())
		var over []float64
		for kind, ds := range fits {
			v["checkpoint.new_pipeline_ms."+kind] = median(ds)
		}
		for _, l := range lives {
			if c := l.calls[0]; c.err == nil && !c.sent.IsZero() {
				over = append(over, ms(c.done.Sub(c.sent))-median(fits[l.kind]))
			}
		}
		v["cluster.create_overhead_ms"] = median(over)
		if err := ft.codecCosts(opts.seed, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verifyLives replays every lifecycle that read its digest before
// deletion and requires the migrated session's digests to equal an
// uninterrupted in-process run to the same tick. It returns the
// in-process fit times per decoder kind, in ms.
func verifyLives(lives []*life, out *outcome, tr *tracer) map[string][]float64 {
	fits := map[string][]float64{}
	for _, l := range lives {
		if l.info == nil {
			continue
		}
		d, dd, fit, _, err := replay(churnSession(l), l.info.tick, tr)
		if err != nil {
			out.check(false, "replay %s: %v", l.key, err)
			continue
		}
		fits[l.kind] = append(fits[l.kind], ms(fit))
		out.check(d == l.info.digest && dd == l.info.decodeDigest,
			"migrated session %s (%s) at tick %d: digests %s/%s, uninterrupted %s/%s",
			l.key, l.kind, l.info.tick, l.info.digest, l.info.decodeDigest, d, dd)
	}
	return fits
}

// codecCosts measures the checkpoint codec on blobs fetched from live
// sessions, one per lifecycle slot of the decoder rotation: blob size,
// Decode time and Restore time, averaged over the rotation.
func (ft *frontTier) codecCosts(seed int64, v map[string]float64) error {
	var bytes, decUs, restMs float64
	for i, kind := range churnKinds {
		info, err := ft.create(sessionConfig(kind, simSeed(seed, uint64(900+i))), false, 0)
		if err != nil {
			return err
		}
		time.Sleep(churnMigrate)
		var blob []byte
		url := ft.shardOf[info.Shard] + "/api/sessions/" + info.ID + "/checkpoint"
		if err := ft.call("serve.checkpoint", http.MethodGet, url, nil, &blob, 0); err != nil {
			return err
		}
		if err := ft.remove(info.Key, 0); err != nil {
			return err
		}
		var decs, rests []float64
		for r := 0; r < 3; r++ {
			sp := ft.tr.begin("checkpoint.Decode", 0, 0)
			t0 := time.Now()
			_, err := checkpoint.Decode(blob)
			decs = append(decs, float64(time.Since(t0).Nanoseconds())/1e3)
			ft.tr.end(sp)
			if err != nil {
				return fmt.Errorf("decode %s blob: %w", kind, err)
			}
			sp = ft.tr.begin("checkpoint.Restore", 0, 0)
			t0 = time.Now()
			_, p, err := checkpoint.Restore(blob)
			rests = append(rests, ms(time.Since(t0)))
			ft.tr.end(sp)
			if err != nil {
				return fmt.Errorf("restore %s blob: %w", kind, err)
			}
			p.Close()
		}
		bytes += float64(len(blob))
		decUs += median(decs)
		restMs += median(rests)
	}
	k := float64(len(churnKinds))
	v["checkpoint.blob_bytes"] = bytes / k
	v["checkpoint.decode_us"] = decUs / k
	v["checkpoint.restore_ms"] = restMs / k
	return nil
}
