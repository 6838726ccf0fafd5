package main

import (
	"fmt"
	"runtime"
	"time"

	"rap"
)

// zipfChunk is how many points one Writer.AddBatch call carries.
const zipfChunk = 4096

// newCalls is how many rap.New calls each pass times for setup_s.
const newCalls = 16

// runLibraryZipf is the library-zipf workload: the rap library used in
// process through its public API. Each pass builds a single Tree with
// rap.New and feeds the whole pre-generated Zipf stream to
// Writer.AddBatch in 4096-point chunks from one goroutine, then queries
// and restores the result. Passes repeat for the run's measured time.
// The AddBatch loop's time is net of the hypervisor's steal (see
// netOfSteal).
//
// The daemon metrics map onto the library as follows: a query is one
// Reader call of the /v1 mix on the finished tree; a chunk's points are
// visible to readers once its AddBatch returns, so the visibility lag is
// the AddBatch call latency; a restart is rap.New plus UnmarshalBinary
// of the tree's snapshot; the peak memory is the largest backing store the
// tree holds, measured in an extra pass (see treePeakMB).
func runLibraryZipf(c config, t *tally) error {
	s := zipfStream(c.seed, c.zipfPoints)
	n := len(s.values)
	runtime.GC()
	var setup, eps, cpu, restart, lat, lag []float64
	var rawEps, shares []float64
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < c.seconds; pass++ {
		for i := 0; i < newCalls; i++ {
			t0 := time.Now()
			_, err := rap.New()
			setup = append(setup, secs(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		p, err := rap.New()
		if err != nil {
			return err
		}
		h0 := readHostCPU()
		cpu0 := selfCPU()
		t0 := time.Now()
		for i := 0; i < n; i += zipfChunk {
			c0 := time.Now()
			p.AddBatch(s.values[i:min(i+zipfChunk, n)])
			lag = append(lag, ms(time.Since(c0)))
		}
		wall := time.Since(t0)
		cpu1 := selfCPU()
		share := stealShare(h0, readHostCPU())
		eps = append(eps, float64(n)/netOfSteal(wall, share).Seconds())
		rawEps = append(rawEps, float64(n)/wall.Seconds())
		shares = append(shares, share)
		cpu = append(cpu, float64((cpu1-cpu0).Nanoseconds())/float64(n))

		t.check(p.N() == uint64(n), "library-zipf: N %d after %d points", p.N(), n)
		for r, sp := range s.ranges {
			low, high := p.EstimateBounds(sp.lo, sp.hi)
			exact := s.exact(r, n)
			t.check(low <= exact && exact <= high,
				"library-zipf [%d,%d]: exact %d outside [%d,%d]", sp.lo, sp.hi, exact, low, high)
		}
		lat = append(lat, libraryQueries(t, p, s)...)

		d, err := timeRestore(t, p)
		if err != nil {
			return err
		}
		restart = append(restart, secs(d))
	}
	peak, err := treePeakMB(s)
	if err != nil {
		return err
	}
	t.note("library-zipf: %d passes of %d points, %d AddBatch calls, %d queries", len(eps), n, len(lag), len(lat))
	t.note("steal share median %.4f, max %.4f; before netting it: ingest_eps %.6g 1/s", median(shares), quantile(shares, 1), median(rawEps))
	t.set("ingest_eps", "1/s", median(eps))
	t.set("cpu_ns_per_event", "ns", median(cpu))
	t.set("peak_rss_mb", "MB", peak)
	t.set("setup_s", "s", median(setup))
	t.set("restart_s", "s", median(restart))
	setQueryMetrics(t, lat, lag)
	return nil
}

// treePeakMB feeds s to a fresh tree in the timed passes' chunks and
// returns the largest backing store the tree held after any chunk, in MB:
// Stats().ArenaBytes, the node slab's capacity plus the counter pools. The
// pass is not timed. A live-heap delta around the tree would also count
// memory outside the arena, but at this tree's size (tens of KB) the Go
// runtime's own allocations move such a delta by several KB from run to
// run, more than the metric's bound.
func treePeakMB(s *stream) (float64, error) {
	p, err := rap.New()
	if err != nil {
		return 0, err
	}
	peak := p.Stats().ArenaBytes
	for i := 0; i < len(s.values); i += zipfChunk {
		p.AddBatch(s.values[i:min(i+zipfChunk, len(s.values))])
		peak = max(peak, p.Stats().ArenaBytes)
	}
	return float64(peak) / (1 << 20), nil
}

// libraryQueries times one round of the /v1 mix as Reader calls on p and
// checks the answers; it returns the latencies in milliseconds.
func libraryQueries(t *tally, p rap.Reader, s *stream) []float64 {
	n := uint64(len(s.values))
	lat := make([]float64, 0, 10*mixLen)
	for k := 0; k < 10*mixLen; k++ {
		ep, r, theta := mixRequest(k, s)
		t0 := time.Now()
		switch ep {
		case estimate:
			low, high := p.EstimateBounds(s.ranges[r].lo, s.ranges[r].hi)
			lat = append(lat, ms(time.Since(t0)))
			exact := s.exact(r, int(n))
			t.check(low <= exact && exact <= high, "library-zipf estimate [%d,%d]: exact %d outside [%d,%d]",
				s.ranges[r].lo, s.ranges[r].hi, exact, low, high)
		case hotranges:
			hot := p.HotRanges(theta)
			lat = append(lat, ms(time.Since(t0)))
			t.check(len(hot) > 0, "library-zipf: no hot ranges at theta %g", theta)
		default:
			st := p.Stats()
			lat = append(lat, ms(time.Since(t0)))
			t.check(st.N == n, "library-zipf: stats N %d, want %d", st.N, n)
		}
	}
	return lat
}

// timeRestore restores p's snapshot into a new tree and checks it.
func timeRestore(t *tally, p rap.Profiler) (time.Duration, error) {
	snap, err := p.Snapshot()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	q, err := rap.New()
	if err != nil {
		return 0, err
	}
	tree, ok := q.(*rap.Tree)
	if !ok {
		return 0, fmt.Errorf("rap.New built a %T, not a single Tree", q)
	}
	if err := tree.UnmarshalBinary(snap); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	t.check(tree.N() == p.N(), "library-zipf: restored tree holds %d of %d events", tree.N(), p.N())
	return d, nil
}
