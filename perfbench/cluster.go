package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"mindful/internal/cluster"
	"mindful/internal/obs"
	"mindful/internal/serve"
	"mindful/internal/serve/checkpoint"
)

// Serving workloads run a 2-shard front tier in this process, with
// every shard's tick loop paced (Shard.TickInterval). The background
// checkpoint, health and janitor loops are off, so the measured work is
// the workload's own.
const shards = 2

// decoderKinds is the rotation of session decoders.
var decoderKinds = []string{"none", "kalman", "wiener", "fixed"}

// sessionConfig is one session's pipeline: 32 channels of 16-QAM at
// 12 dB; every decoder is calibrated on the implant's own cortex and
// the linear ones adapt.
func sessionConfig(kind string, seed int64) checkpoint.SessionConfig {
	sc := checkpoint.SessionConfig{
		Channels:     32,
		SampleRateHz: 2000,
		SampleBits:   10,
		QAMBits:      4,
		EbN0dB:       12,
		Seed:         seed,
		Decoder:      kind,
	}
	if kind != "none" {
		sc.Calibrate, sc.Track, sc.Adapt = true, true, true
	}
	return sc
}

// frontTier is a running cluster and the client that drives its HTTP
// control plane over shared keep-alive connections.
type frontTier struct {
	c       *cluster.Cluster
	observe *obs.Observer
	base    string
	client  *http.Client
	shardOf map[string]string // shard ID → control base URL
	ids     []string
	tr      *tracer
}

func startFrontTier(tick time.Duration, tr *tracer) (*frontTier, error) {
	o := obs.New()
	c, err := cluster.New(cluster.Config{
		CheckpointInterval: -1,
		HealthInterval:     -1,
		ReconcileInterval:  -1,
		Shard:              serve.Config{TickInterval: tick},
		Observer:           o,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	ft := &frontTier{
		c:       c,
		observe: o,
		base:    "http://" + c.ControlAddr(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: runtime.NumCPU(),
				MaxConnsPerHost:     runtime.NumCPU(),
			},
		},
		shardOf: map[string]string{},
		tr:      tr,
	}
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		if err := c.AddShard(id); err != nil {
			ft.close()
			return nil, err
		}
		ft.ids = append(ft.ids, id)
	}
	for _, sh := range c.Topology().Shards {
		ft.shardOf[sh.ID] = sh.CtlBase
	}
	return ft, nil
}

func (ft *frontTier) close() {
	ft.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ft.c.Shutdown(ctx)
}

// other returns the shard that is not id.
func (ft *frontTier) other(id string) string {
	if ft.ids[0] == id {
		return ft.ids[1]
	}
	return ft.ids[0]
}

// call makes one control-plane request, traced as span name, and
// decodes a JSON answer into out when out is non-nil. Any status other
// than 2xx is an error.
func (ft *frontTier) call(name, method, url string, body, out any, op int64) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := ft.tr.begin(name, 0, op)
	defer ft.tr.end(sp)
	resp, err := ft.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", name, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if b, ok := out.(*[]byte); ok {
		*b = data
		return nil
	}
	return json.Unmarshal(data, out)
}

func (ft *frontTier) create(sc checkpoint.SessionConfig, paused bool, op int64) (cluster.Info, error) {
	var info cluster.Info
	err := ft.call("cluster.create", http.MethodPost, ft.base+"/api/sessions",
		serve.CreateRequest{SessionConfig: sc, StartPaused: paused}, &info, op)
	return info, err
}

func (ft *frontTier) lifecycle(verb, key string, op int64) error {
	return ft.call("cluster."+verb, http.MethodPost, ft.base+"/api/sessions/"+key+"/"+verb, nil, nil, op)
}

func (ft *frontTier) migrate(key, target string, op int64) error {
	return ft.call("cluster.migrate", http.MethodPost, ft.base+"/api/sessions/"+key+"/migrate?target="+target, nil, nil, op)
}

func (ft *frontTier) info(key string, op int64) (cluster.Info, error) {
	var info cluster.Info
	err := ft.call("cluster.info", http.MethodGet, ft.base+"/api/sessions/"+key, nil, &info, op)
	return info, err
}

func (ft *frontTier) remove(key string, op int64) error {
	return ft.call("cluster.delete", http.MethodDelete, ft.base+"/api/sessions/"+key, nil, nil, op)
}

// shardStats reads every shard's /api/stats.
func (ft *frontTier) shardStats() ([]serve.StatsResponse, error) {
	var out []serve.StatsResponse
	for _, id := range ft.ids {
		var st serve.StatsResponse
		if err := ft.call("serve.stats", http.MethodGet, ft.shardOf[id]+"/api/stats", nil, &st, 0); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// published sums the frames published across every shard's sessions.
func (ft *frontTier) published() (int64, error) {
	sts, err := ft.shardStats()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, st := range sts {
		n += st.Published
	}
	return n, nil
}

// replay runs a session config uninterrupted in-process for ticks ticks
// and returns its frame and decode digests as the gateway prints them,
// with the fit and per-step times.
func replay(sc checkpoint.SessionConfig, ticks int, tr *tracer) (digest, decodeDigest string, fit, step time.Duration, err error) {
	sp := tr.begin("checkpoint.NewPipeline."+sc.Decoder, 0, 0)
	t0 := time.Now()
	p, err := checkpoint.NewPipeline(sc, 0)
	fit = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return "", "", 0, 0, err
	}
	defer p.Close()
	t0 = time.Now()
	for i := 0; i < ticks; i++ {
		if err := p.Step(); err != nil {
			return "", "", 0, 0, err
		}
	}
	if ticks > 0 {
		step = time.Since(t0) / time.Duration(ticks)
	}
	r := p.Result()
	digest = fmt.Sprintf("%d", r.Digest)
	if sc.Decoder != "none" {
		decodeDigest = fmt.Sprintf("%d", r.DecodeDigest)
	}
	return digest, decodeDigest, fit, step, nil
}
