package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"time"

	"rap/internal/core"
	"rap/internal/ingest"
	"rap/internal/obs"
	"rap/internal/shard"
	"rap/internal/trace"
)

// runTraced is the traced run: it times calls into each layer's public
// functions on the same seeded inputs as the end-to-end workloads and
// reports the per-layer metrics. The trace, ingest and shard layers are
// timed on the daemon-file and daemon-serve inputs, the core descent on
// the library-zipf input, and the HTTP layer on a short daemon-serve
// session. The guard counts describe the named workload's own tree. Each
// timing is the median of c.reps repetitions.
func runTraced(c config, t *tally) error {
	file, err := valueStream("gzip", c.seed, c.fileEvents)
	if err != nil {
		return err
	}
	srv, err := serveStream(c, c.seconds)
	if err != nil {
		return err
	}
	zipf := zipfStream(c.seed, c.zipfPoints)
	runtime.GC()
	lt := &layerTimer{c: c, t: t}

	decode := lt.decode(file)
	plain, traced, blocked, queueP99 := lt.endToEnd(file)
	pipeline := lt.pipeline(file)
	fileEngine, apply := lt.apply(file, core.DefaultConfig())
	if err := lt.checkpoint(file); err != nil {
		return err
	}
	serveEngine, applyServe := lt.apply(srv, serveConfig())
	lt.epochs(serveEngine, srv)
	zipfTree := lt.add(zipf)
	if err := lt.http(); err != nil {
		return err
	}

	t.set("trace.decode_ns_per_event", "ns", decode)
	t.set("ingest.pipeline_ns_per_event", "ns", pipeline)
	t.set("ingest.handoff_ns_per_event", "ns", pipeline-apply)
	t.note("ingest.handoff_ns_per_event is derived: ingest.pipeline_ns_per_event - shard.apply_ns_per_event")
	t.set("ingest.reader_blocked_frac", "fraction", blocked)
	t.set("ingest.queue_wait_p99_us", "us", queueP99)
	t.set("shard.apply_ns_per_event", "ns", apply)
	t.set("shard.apply_serve_ns_per_event", "ns", applyServe)

	layers := decode + pipeline
	t.set("coverage.e2e_ns_per_event", "ns", plain)
	t.set("coverage.layer_sum_ns_per_event", "ns", layers)
	t.set("coverage.layer_sum_over_e2e", "ratio", layers/plain)
	t.set("coverage.traced_over_plain", "ratio", traced/plain)
	t.note("coverage daemon-file: decode %.1f + handoff %.1f + apply %.1f = %.1f ns/event serial, in-process end to end %.1f ns/event (%.2fx); traced end to end %.1f ns/event (%.3fx of plain)",
		decode, pipeline-apply, apply, layers, plain, layers/plain, traced, traced/plain)

	var tree *core.Tree
	var st core.Stats
	switch c.workload {
	case "daemon-file":
		tree, st = fileEngine.MergedTree(), fileEngine.Stats()
	case "daemon-serve":
		tree, st = serveEngine.MergedTree(), serveEngine.Stats()
	default:
		tree, st = zipfTree, zipfTree.Stats()
	}
	var mass, depth float64
	tree.Walk(func(ni core.NodeInfo) bool {
		mass += float64(ni.Count)
		depth += float64(ni.Count) * float64(ni.Depth)
		return true
	})
	t.set("core.nodes", "count", float64(st.Nodes))
	t.set("core.arena_bytes", "bytes", float64(st.ArenaBytes))
	t.set("core.splits", "count", float64(st.Splits))
	t.set("core.merges", "count", float64(st.Merges))
	t.set("core.merge_batches", "count", float64(st.MergeBatches))
	t.set("core.credit_depth_mean", "levels", depth/mass)
	return nil
}

// layerTimer holds what the layer timings share.
type layerTimer struct {
	c config
	t *tally
}

// medianOf runs f c.reps times and returns the median of its results.
func (lt *layerTimer) medianOf(f func() float64) float64 {
	xs := make([]float64, lt.c.reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func perEvent(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// decode times trace.Reader.Next over the daemon-file bytes in memory.
func (lt *layerTimer) decode(s *stream) float64 {
	return lt.medianOf(func() float64 {
		r := trace.NewReader(bytes.NewReader(s.data))
		n := 0
		t0 := time.Now()
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			n++
		}
		d := time.Since(t0)
		lt.t.check(n == len(s.values) && r.Err() == nil, "trace: decoded %d of %d events, err %v", n, len(s.values), r.Err())
		return perEvent(d, n)
	})
}

// rapdOptions are the ingest Options rapd builds from its default flags
// when it has no admin endpoint and no checkpoint directory: only the
// fields where rapd's flags differ from ingest's own defaults are set.
func rapdOptions() ingest.Options {
	return ingest.Options{
		Tree:          core.DefaultConfig(),
		ReadTimeout:   30 * time.Second,
		ReadSnapshots: true,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// runIngest opens an Ingestor over one source, runs it to the end and
// returns the time Run took. It checks that every event was applied.
func (lt *layerTimer) runIngest(opts ingest.Options, open func() trace.Source, n int) (time.Duration, *ingest.Ingestor) {
	in, err := ingest.Open(opts, []ingest.SourceSpec{{
		Name: "trace0:bench",
		Open: func() (trace.Source, error) { return open(), nil },
	}})
	if err != nil {
		lt.t.check(false, "ingest.Open: %v", err)
		return 0, nil
	}
	t0 := time.Now()
	err = in.Run(context.Background())
	d := time.Since(t0)
	lt.t.check(err == nil && in.N() == uint64(n), "ingest.Run: applied %d of %d events, err %v", in.N(), n, err)
	return d, in
}

// endToEnd times the in-process daemon-file composition, trace bytes →
// trace.Reader → Ingestor.Run → drained epoch, with and without the
// tracing wrappers: a sampling trace.Source around the reader and a
// metrics registry. Plain and traced repetitions alternate.
func (lt *layerTimer) endToEnd(s *stream) (plain, traced, blocked, queueP99 float64) {
	n := len(s.values)
	var ps, ts, bs, qs []float64
	for i := 0; i < lt.c.reps; i++ {
		d, _ := lt.runIngest(rapdOptions(), func() trace.Source {
			return trace.NewReader(bytes.NewReader(s.data))
		}, n)
		ps = append(ps, perEvent(d, n))

		opts := rapdOptions()
		opts.Metrics = obs.NewRegistry()
		var src *blockedSource
		d, _ = lt.runIngest(opts, func() trace.Source {
			src = &blockedSource{src: trace.NewReader(bytes.NewReader(s.data))}
			return src
		}, n)
		ts = append(ts, perEvent(d, n))
		bs = append(bs, src.fraction())
		qs = append(qs, histogramQuantile(opts.Metrics, "rap_ingest_queue_wait_seconds", 0.99)*1e6)
	}
	return median(ps), median(ts), median(bs), median(qs)
}

// histogramQuantile reads quantile q of a registry histogram.
func histogramQuantile(reg *obs.Registry, name string, q float64) float64 {
	for _, f := range reg.Snapshot() {
		if f.Name == name && len(f.Series) > 0 {
			return obs.QuantileFromBuckets(f.Series[0].Buckets, q)
		}
	}
	return 0
}

// blockedSource samples how much of the reader goroutine's wall time is
// spent outside Next, handing events on: every sampleEvery-th call it
// times that call and the gap before it.
type blockedSource struct {
	src             trace.Source
	calls           int
	exitAt          time.Time
	inside, outside time.Duration
}

const sampleEvery = 64

func (b *blockedSource) Next() (trace.Event, bool) {
	b.calls++
	switch b.calls % sampleEvery {
	case 0:
		enter := time.Now()
		if !b.exitAt.IsZero() {
			b.outside += enter.Sub(b.exitAt)
		}
		e, ok := b.src.Next()
		b.inside += time.Since(enter)
		return e, ok
	case sampleEvery - 1:
		e, ok := b.src.Next()
		b.exitAt = time.Now()
		return e, ok
	}
	return b.src.Next()
}

// Err passes the reader's terminal error through to the pipeline.
func (b *blockedSource) Err() error { return b.src.(*trace.Reader).Err() }

func (b *blockedSource) fraction() float64 {
	return b.outside.Seconds() / (b.outside + b.inside).Seconds()
}

// replay is a trace.Source over pre-decoded events.
type replay struct {
	evs []trace.Event
	i   int
}

func (r *replay) Next() (trace.Event, bool) {
	if r.i >= len(r.evs) {
		return trace.Event{}, false
	}
	r.i++
	return r.evs[r.i-1], true
}

// pipeline times Ingestor.Run with rapd's default Options over a source
// that replays pre-decoded events: handoff, queues and apply, no decode.
func (lt *layerTimer) pipeline(s *stream) float64 {
	evs := s.events(0, len(s.values))
	return lt.medianOf(func() float64 {
		d, _ := lt.runIngest(rapdOptions(), func() trace.Source { return &replay{evs: evs} }, len(evs))
		return perEvent(d, len(evs))
	})
}

// apply times the shard engine's apply path in 256-event chunks with read
// snapshots on, as the pipeline applies one source: every chunk goes to
// shard 0 through Engine.WithShard and Tree.AddSamples. (Engine.AddSamples
// would spread the chunks round robin over the shards and build other
// trees than rapd does.) It returns the last engine built.
func (lt *layerTimer) apply(s *stream, cfg core.Config) (*shard.Engine, float64) {
	samples := make([]core.Sample, len(s.values))
	for i, v := range s.values {
		samples[i] = core.Sample{Value: v, Weight: 1}
	}
	var eng *shard.Engine
	ns := lt.medianOf(func() float64 {
		var err error
		if eng, err = shard.New(cfg, 4); err != nil {
			panic(err) // cfg is a valid constant configuration
		}
		eng.EnableReadSnapshots(0)
		t0 := time.Now()
		for i := 0; i < len(samples); i += 256 {
			chunk := samples[i:min(i+256, len(samples))]
			eng.WithShard(0, func(tr *core.Tree) { tr.AddSamples(chunk) })
		}
		return perEvent(time.Since(t0), len(samples))
	})
	lt.t.check(eng.N() == uint64(len(samples)), "shard: applied %d of %d events", eng.N(), len(samples))
	return eng, ns
}

// checkpoint runs the daemon-file events through an Ingestor with a
// checkpoint directory, then times Checkpoint on the finished state,
// Open over that checkpoint, and Run of a recovered Ingestor, which only
// skips the already-applied events.
func (lt *layerTimer) checkpoint(s *stream) error {
	evs := s.events(0, len(s.values))
	n := len(evs)
	opts := rapdOptions()
	opts.CheckpointDir = filepath.Join(lt.c.work, "traced-ck")
	spec := []ingest.SourceSpec{{
		Name: "trace0:bench",
		Open: func() (trace.Source, error) { return &replay{evs: evs}, nil },
	}}
	_, in := lt.runIngest(opts, func() trace.Source { return &replay{evs: evs} }, n)
	if in == nil {
		return fmt.Errorf("traced checkpoint run failed")
	}
	ck := lt.medianOf(func() float64 {
		t0 := time.Now()
		err := in.Checkpoint()
		d := time.Since(t0)
		lt.t.check(err == nil, "ingest.Checkpoint: %v", err)
		return ms(d)
	})
	lt.t.set("ingest.checkpoint_ms", "ms", ck)
	lt.t.set("ingest.checkpoint_bytes", "bytes", float64(in.Stats().Checkpoint.LastSize))

	rec := lt.medianOf(func() float64 {
		t0 := time.Now()
		r, err := ingest.Open(opts, spec)
		d := time.Since(t0)
		lt.t.check(err == nil && r.N() == uint64(n), "ingest.Open over the checkpoint: err %v", err)
		return ms(d)
	})
	lt.t.set("ingest.recover_ms", "ms", rec)

	skipOpts := opts
	skipOpts.SkipFinalCheckpoint = true
	skip := lt.medianOf(func() float64 {
		r, err := ingest.Open(skipOpts, spec)
		if err != nil {
			lt.t.check(false, "ingest.Open over the checkpoint: %v", err)
			return 0
		}
		t0 := time.Now()
		err = r.Run(context.Background())
		d := time.Since(t0)
		lt.t.check(err == nil && r.N() == uint64(n), "recovered ingest.Run: N %d of %d, err %v", r.N(), n, err)
		return perEvent(d, n)
	})
	lt.t.set("ingest.skip_ns_per_event", "ns", skip)
	return nil
}

// epochs times epoch publish, Clone and MarshalBinary at the daemon-serve
// engine's end-of-run state, and the serve query mix on its epoch.
func (lt *layerTimer) epochs(eng *shard.Engine, s *stream) {
	lt.t.set("shard.publish_count", "count", float64(eng.Publisher().Published()))
	lt.t.set("shard.publish_us", "us", lt.medianOf(func() float64 {
		t0 := time.Now()
		eng.PublishNow()
		return float64(time.Since(t0).Nanoseconds()) / 1e3
	}))
	tree := eng.MergedTree()
	lt.t.set("core.clone_us", "us", lt.medianOf(func() float64 {
		t0 := time.Now()
		tree.Clone()
		return float64(time.Since(t0).Nanoseconds()) / 1e3
	}))
	lt.t.set("core.marshal_ms", "ms", lt.medianOf(func() float64 {
		t0 := time.Now()
		_, err := tree.MarshalBinary()
		d := time.Since(t0)
		lt.t.check(err == nil, "core.MarshalBinary: %v", err)
		return ms(d)
	}))

	ep := eng.Reader()
	defer ep.Release()
	n := int(ep.CutN())
	var est, hot []float64
	for k := 0; k < 50*mixLen; k++ {
		kind, r, theta := mixRequest(k, s)
		switch kind {
		case estimate:
			t0 := time.Now()
			low, high := ep.EstimateBounds(s.ranges[r].lo, s.ranges[r].hi)
			est = append(est, float64(time.Since(t0).Nanoseconds()))
			exact := s.exact(r, n)
			lt.t.check(low <= exact && exact <= high, "epoch estimate [%d,%d]: exact %d outside [%d,%d]",
				s.ranges[r].lo, s.ranges[r].hi, exact, low, high)
		case hotranges:
			t0 := time.Now()
			ep.HotRanges(theta)
			hot = append(hot, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	lt.t.set("core.estimate_ns", "ns", median(est))
	lt.t.set("core.hotranges_us", "us", median(hot))
}

// add times Tree.AddBatch in 4096-point chunks over the library-zipf
// stream and returns the last tree built.
func (lt *layerTimer) add(s *stream) *core.Tree {
	var tree *core.Tree
	lt.t.set("core.add_ns_per_event", "ns", lt.medianOf(func() float64 {
		tree = core.MustNew(core.DefaultConfig())
		t0 := time.Now()
		for i := 0; i < len(s.values); i += zipfChunk {
			tree.AddBatch(s.values[i:min(i+zipfChunk, len(s.values))])
		}
		return perEvent(time.Since(t0), len(s.values))
	}))
	lt.t.check(tree.N() == uint64(len(s.values)), "core: N %d of %d points", tree.N(), len(s.values))
	return tree
}

// http runs a short daemon-serve session and reports the client latency
// per /v1 endpoint. The garbage of the earlier timings is collected first,
// so the benchmark's own collector does not compete with rapd for the CPUs
// during the session.
func (lt *layerTimer) http() error {
	s, err := serveStream(lt.c, lt.c.tracedServe)
	if err != nil {
		return err
	}
	runtime.GC()
	sv, err := serve(lt.c, s, filepath.Join(lt.c.work, "traced-serve"))
	if err != nil {
		return err
	}
	lt.t.check(sv.visible && sv.final == uint64(len(s.values)), "traced daemon-serve: final n %d of %d", sv.final, len(s.values))
	_, _, perEP := sv.score(lt.t, s, lt.c.serveRate)
	for ep, name := range endpointNames {
		lt.t.set("rapd."+name+"_p50_us", "us", quantile(perEP[ep], 0.5)*1e3)
	}
	return nil
}
