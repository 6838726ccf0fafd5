package shard

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rap/internal/core"
	"rap/internal/stats"
)

// TestReaderMatchesMergedTreeCut checks the differential oracle: once
// publishes are quiesced, a pinned epoch and MergedTreeCut describe the
// same profile.
func TestReaderMatchesMergedTreeCut(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableReadSnapshots(1 << 10)
	rng := stats.NewSplitMix64(42)
	z := stats.NewZipf(rng, 1<<16, 1.2)
	for i := 0; i < 80_000; i++ {
		e.Add(uint64(z.Rank()))
	}
	e.PublishNow() // quiesced cut at the final state

	ep := e.Reader()
	defer ep.Release()
	cut := e.MergedTreeCut(nil)
	if ep.N() != cut.N() {
		t.Fatalf("epoch N = %d, merged cut N = %d", ep.N(), cut.N())
	}
	for _, r := range [][2]uint64{{0, 1 << 16}, {0, 255}, {1 << 15, 1 << 16}, {100, 100}} {
		el, eh := ep.EstimateBounds(r[0], r[1])
		cl, ch := cut.EstimateBounds(r[0], r[1])
		if el != cl || eh != ch {
			t.Fatalf("bounds differ on [%d,%d]: epoch (%d,%d) vs cut (%d,%d)", r[0], r[1], el, eh, cl, ch)
		}
		if ep.Estimate(r[0], r[1]) != cut.Estimate(r[0], r[1]) {
			t.Fatalf("estimate differs on [%d,%d]", r[0], r[1])
		}
	}
	eh := ep.HotRanges(0.01)
	ch := cut.HotRanges(0.01)
	if len(eh) != len(ch) {
		t.Fatalf("hot ranges differ: %d vs %d", len(eh), len(ch))
	}
	for i := range eh {
		if eh[i] != ch[i] {
			t.Fatalf("hot range %d differs: %+v vs %+v", i, eh[i], ch[i])
		}
	}
}

// TestEpochHammer drives per-feeder handles at full rate while queriers
// pin epochs; run under -race this exercises the publish cadence, the
// TryLock coalescing, and the pin/retire protocol together.
func TestEpochHammer(t *testing.T) {
	const feeders = 4
	const perFeeder = 30_000
	e, err := New(testConfig(), feeders)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableReadSnapshots(512) // aggressive cadence

	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			h := e.Handle()
			rng := stats.NewSplitMix64(uint64(300 + f))
			z := stats.NewZipf(rng, 1<<16, 1.2)
			for i := 0; i < perFeeder; i++ {
				h.Add(uint64(z.Rank()))
			}
		}(f)
	}
	var stop atomic.Bool
	var qwg sync.WaitGroup
	for q := 0; q < 4; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			var lastSeq, lastCut uint64
			for !stop.Load() {
				ep := e.Reader()
				if ep == nil {
					t.Error("Reader returned nil with snapshots enabled")
					return
				}
				if s := ep.Seq(); s < lastSeq {
					t.Errorf("epoch seq went backwards: %d after %d", s, lastSeq)
					ep.Release()
					return
				} else {
					lastSeq = s
				}
				// The stream only grows, so cut positions must be monotone
				// in sequence order.
				if c := ep.CutN(); c < lastCut {
					t.Errorf("epoch cut went backwards: %d after %d", c, lastCut)
				} else {
					lastCut = c
				}
				lo, hi := ep.EstimateBounds(0, 1<<16)
				if lo > hi {
					t.Errorf("bounds inverted: %d > %d", lo, hi)
				}
				ep.Release()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	if got := e.N(); got != feeders*perFeeder {
		t.Fatalf("N = %d, want %d", got, feeders*perFeeder)
	}
	pub := e.Publisher()
	if pub.Published() < 2 {
		t.Fatalf("only %d epochs published at cadence 512 over %d events", pub.Published(), feeders*perFeeder)
	}
	if pub.Pinned() != 0 {
		t.Fatalf("%d pins leaked", pub.Pinned())
	}
}

// TestQueryPathLockFree holds every shard mutex and the publish mutex,
// then requires queries to still answer from the published epoch.
func TestQueryPathLockFree(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		e.Add(i % 1000)
	}
	e.EnableReadSnapshots(1 << 16)

	for i := range e.shards {
		e.shards[i].mu.Lock()
		defer e.shards[i].mu.Unlock()
	}
	e.pubMu.Lock()
	defer e.pubMu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Estimate(0, 1<<16)
		e.EstimateBounds(0, 1<<16)
		e.HotRanges(0.01)
		ep := e.Reader()
		ep.Stats()
		ep.Release()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked on an engine lock: read path is not lock-free")
	}
}

// TestQueryPathMutexProfile runs the contended write+query mix with
// mutex profiling at full fraction and asserts no recorded contention
// stack passes through the epoch query path. One shard makes every
// writer share a single mutex, the worst case for a query that touched it.
func TestQueryPathMutexProfile(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	e, err := New(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableReadSnapshots(512)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.Handle()
			for i := 0; i < 50_000; i++ {
				h.Add(uint64(w*50_000+i) % (1 << 16))
			}
		}(w)
	}
	var qwg sync.WaitGroup
	for q := 0; q < 4; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for !stop.Load() {
				e.Estimate(0, 1<<15)
				e.EstimateBounds(0, 1<<15)
				e.HotRanges(0.05)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	qwg.Wait()

	var records []runtime.BlockProfileRecord
	for {
		n, ok := runtime.MutexProfile(records)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.BlockProfileRecord, n+64)
	}
	for _, rec := range records {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			name := f.Function
			if strings.Contains(name, "Engine).Estimate") ||
				strings.Contains(name, "Engine).HotRanges") ||
				strings.Contains(name, "Epoch).") ||
				strings.Contains(name, "EpochPublisher).Acquire") {
				t.Fatalf("mutex contention recorded on the query path: %s", name)
			}
			if !more {
				break
			}
		}
	}
}

func TestRestoreAndAdoptShardRepublish(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8_000; i++ {
		e.Add(i % 512)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	e2, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e2.EnableReadSnapshots(1 << 20) // cadence far beyond the data: only explicit republish paths fire
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	ep := e2.Reader()
	if ep.N() != 8_000 {
		ep.Release()
		t.Fatalf("epoch N after Restore = %d, want 8000 (restore did not republish)", ep.N())
	}
	ep.Release()

	donor, err := New(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1_000; i++ {
		donor.Add(i % 64)
	}
	e2.AdoptShard(0, donor.MergedTreeCut(nil))
	ep = e2.Reader()
	defer ep.Release()
	if ep.N() <= 8_000-2_000 || ep.N() == 8_000 {
		// shard 0 held ~2000 of the 8000 events and was replaced by 1000.
		t.Fatalf("epoch N after AdoptShard = %d (adopt did not republish)", ep.N())
	}
}

// TestOneShardEpochIsItsClone: with one shard holding mass, the epoch is
// that shard's clone, byte for byte, and stays frozen while the shard
// keeps ingesting.
func TestOneShardEpochIsItsClone(t *testing.T) {
	e, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableReadSnapshots(1 << 40)
	pts := zipfPoints(5, 20_000)
	e.WithShard(2, func(tr *core.Tree) { tr.AddBatch(pts) })
	e.PublishNow()

	var shard []byte
	e.WithShard(2, func(tr *core.Tree) { shard, err = tr.MarshalBinary() })
	if err != nil {
		t.Fatal(err)
	}
	ep := e.Reader()
	defer ep.Release()
	got, err := ep.Tree().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shard) {
		t.Fatalf("epoch snapshot (%d bytes) differs from shard 2's (%d bytes)", len(got), len(shard))
	}
	e.WithShard(2, func(tr *core.Tree) { tr.AddBatch(pts) })
	if again, _ := ep.Tree().MarshalBinary(); !bytes.Equal(again, got) {
		t.Fatal("epoch changed when its shard ingested after the publish")
	}
}

// TestPublishStaleGuard: after a slow publish, PublishStale waits
// publishGuard times that publish's duration before it publishes again,
// and it never publishes when nothing arrived.
func TestPublishStaleGuard(t *testing.T) {
	e, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.PublishStale() {
		t.Fatal("PublishStale published with read snapshots disabled")
	}
	e.EnableReadSnapshots(1 << 40)
	pub := e.Publisher()
	// publishSoon polls PublishStale until the guard after the previous
	// (fast) publish lapses.
	publishSoon := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !e.PublishStale() {
			if time.Now().After(deadline) {
				t.Fatal("PublishStale never published a pending event")
			}
			time.Sleep(time.Millisecond)
		}
	}
	e.Add(1)
	publishSoon()
	time.Sleep(10 * time.Millisecond)
	if e.PublishStale() {
		t.Fatal("PublishStale published with nothing pending")
	}

	// Stand in for a slow publish that just ended: it took 20ms, so the
	// next timer publish waits until 400ms after it. The loop stops
	// checking 100ms early, margin for a descheduled test goroutine.
	const slow = 20 * time.Millisecond
	e.pubMu.Lock()
	e.pubEnd, e.pubDur = time.Now(), slow
	e.pubMu.Unlock()
	e.Add(2)
	before := pub.Published()
	for time.Since(e.pubEnd) < publishGuard*slow-5*slow {
		if e.PublishStale() {
			t.Fatalf("PublishStale published %v after a %v publish, guard is %v",
				time.Since(e.pubEnd), slow, publishGuard*slow)
		}
		time.Sleep(slow)
	}
	publishSoon()
	if pub.Published() != before+1 {
		t.Fatalf("published %d epochs, want 1", pub.Published()-before)
	}
	if ep := pub.Current(); ep.N() != 2 {
		t.Fatalf("epoch N = %d, want 2", ep.N())
	}
}
