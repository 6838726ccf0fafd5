package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"rap/internal/core"
	"rap/internal/shard"
	"rap/internal/stats"
)

// ContendedRow is one feeder count measured under both locking regimes.
type ContendedRow struct {
	Feeders       int
	SingleLockEPS float64 // events/sec through a one-shard shard.Engine
	ShardedEPS    float64 // events/sec through a shard.Engine (shards = feeders)
	Speedup       float64 // ShardedEPS / SingleLockEPS
}

// ContendedResult measures multi-goroutine ingest throughput: F feeder
// goroutines hammering per-event Add through per-feeder pinned handles on
// (a) a one-shard engine, where every handle pins shard 0 so all feeders
// share one mutex, and (b) a sharded engine with one shard per feeder.
// The workload (per-feeder Zipf streams) is pre-generated so the measured
// region is pure ingest. Scaling beyond 1× requires real cores:
// GOMAXPROCS is recorded so a 1-CPU run explains its own flatness.
type ContendedResult struct {
	Events     uint64 // events per regime at each feeder count
	GOMAXPROCS int
	Rows       []ContendedRow
}

// Contended runs the contended-ingest experiment at 1, 2, 4, and 8
// feeders.
func Contended(o Options) (ContendedResult, error) {
	cfg := valueConfig(0.01)
	r := ContendedResult{Events: o.Events, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, feeders := range []int{1, 2, 4, 8} {
		per := o.Events / uint64(feeders)
		if per == 0 {
			per = 1
		}
		// Pre-generate each feeder's stream so generation cost and rng
		// state stay out of the timed region and off the shared path.
		streams := make([][]uint64, feeders)
		for f := range streams {
			rng := stats.NewSplitMix64(o.Seed + uint64(1000*feeders+f))
			// 2^20 distinct ranks: plenty of tree structure without the
			// O(n) CDF table of a full 64-bit-domain Zipf.
			z := stats.NewZipf(rng, 1<<20, 1.2)
			s := make([]uint64, per)
			for i := range s {
				s[i] = uint64(z.Rank())
			}
			streams[f] = s
		}

		single, err := timeFeeders(streams, cfg, 1)
		if err != nil {
			return ContendedResult{}, err
		}
		sharded, err := timeFeeders(streams, cfg, feeders)
		if err != nil {
			return ContendedResult{}, err
		}
		row := ContendedRow{Feeders: feeders, SingleLockEPS: single, ShardedEPS: sharded}
		if single > 0 {
			row.Speedup = sharded / single
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// timeFeeders runs one goroutine per stream, each through its own pinned
// handle on a fresh engine with the given shard count, and returns
// aggregate events/sec.
func timeFeeders(streams [][]uint64, cfg core.Config, shards int) (float64, error) {
	e, err := shard.New(cfg, shards)
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, s := range streams {
		total += uint64(len(s))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range streams {
		wg.Add(1)
		go func(h *shard.Handle, s []uint64) {
			defer wg.Done()
			for _, v := range s {
				h.Add(v)
			}
		}(e.Handle(), s)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("experiments: contended run too fast to time")
	}
	return float64(total) / elapsed, nil
}

// Print renders the contended-ingest table.
func (r ContendedResult) Print(w io.Writer) {
	header(w, "Contended ingest: sharded engine vs single-lock tree")
	fmt.Fprintf(w, "events per regime: %d, GOMAXPROCS: %d\n\n", r.Events, r.GOMAXPROCS)
	fmt.Fprintf(w, "%-8s %-16s %-16s %s\n", "feeders", "single-lock e/s", "sharded e/s", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-16.0f %-16.0f %.2fx\n",
			row.Feeders, row.SingleLockEPS, row.ShardedEPS, row.Speedup)
	}
	if r.GOMAXPROCS == 1 {
		fmt.Fprintf(w, "\n(GOMAXPROCS=1: feeders share one core, so sharding cannot scale here;\n")
		fmt.Fprintf(w, " the speedup column is meaningful only on multi-core hosts)\n")
	}
}
