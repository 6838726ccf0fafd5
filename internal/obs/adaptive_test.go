package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestAdaptiveQuantileUniform(t *testing.T) {
	a := NewAdaptiveHistogram()
	// 1..1000 µs uniformly, inserted in a deterministic shuffled order
	// (7 is coprime to 1000, so i·7 mod 1000 is a permutation): quantile
	// recovery assumes the mass retained at coarse nodes early on is a
	// sample of the same stream, which holds for any roughly stationary
	// arrival order but not for a sorted one. The q-quantile is q·1ms.
	for i := 0; i < 1000; i++ {
		a.Observe(time.Duration(i*7%1000+1) * time.Microsecond)
	}
	if a.Count() != 1000 {
		t.Fatalf("count %d", a.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500e-6}, {0.95, 950e-6}, {0.99, 990e-6}, {1.00, 1000e-6},
	} {
		got := a.Quantile(tc.q)
		// Resolution is governed by the mass retained at coarse nodes
		// while the tree was shallow (redistributed by Quantile, but with
		// stream-sampling error): allow 5% of the 1ms range. The fixed
		// octave ladder's bucket at p50 is (410µs, 819µs] — an order of
		// magnitude coarser than what this asserts.
		if math.Abs(got-tc.want) > 50e-6 {
			t.Errorf("p%v = %v, want %v", tc.q*100, got, tc.want)
		}
	}
}

func TestAdaptiveQuantileEdgeCases(t *testing.T) {
	a := NewAdaptiveHistogram()
	if got := a.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
	if got := a.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN q = %v, want NaN", got)
	}
	a.Observe(time.Millisecond)
	if got := a.Quantile(-1); math.IsNaN(got) || got < 0 {
		t.Errorf("q<0 = %v, want clamp", got)
	}
	if got := a.Quantile(7); math.IsNaN(got) {
		t.Errorf("q>1 = %v, want clamp", got)
	}
	// Negative and beyond-universe durations clamp to the universe.
	a.Observe(-time.Second)
	a.Observe(time.Hour)
	if a.Count() != 3 {
		t.Fatalf("count %d", a.Count())
	}
	if got := a.Quantile(1.0); got > float64(adaptiveMaxNs)/1e9+1e-9 {
		t.Errorf("clamped max quantile = %v", got)
	}
}

// TestAdaptiveAgreesWithLadder is the in-package version of the e2e
// acceptance bullet: on a skewed latency stream, adaptive p50/p99 agree
// with the fixed-ladder histogram to within one ladder bucket.
func TestAdaptiveAgreesWithLadder(t *testing.T) {
	r := NewRegistry()
	fixed := r.Duration("lat", "")
	a := NewAdaptiveHistogram()
	obs := func(d time.Duration) {
		fixed.ObserveDuration(d)
		a.Observe(d)
	}
	for i := 0; i < 990; i++ {
		obs(time.Duration(900+i%200) * time.Microsecond) // ~1ms mode
	}
	for i := 0; i < 10; i++ {
		obs(120 * time.Millisecond) // sparse slow tail
	}
	ladder := LatencyBuckets()
	for _, q := range []float64{0.50, 0.99} {
		lad, ada := fixed.Quantile(q), a.Quantile(q)
		if math.IsNaN(lad) || math.IsNaN(ada) {
			t.Fatalf("q=%v: NaN (ladder %v adaptive %v)", q, lad, ada)
		}
		if !withinOneLadderBucket(ladder, lad, ada) {
			t.Errorf("q=%v: ladder %v vs adaptive %v differ by more than one bucket", q, lad, ada)
		}
	}
}

// TestAdaptiveSparseTailAgreesWithLadder: a 2% tail spread over two
// decades (10µs–1ms) above a 3µs body, the shape a stage takes on a
// loaded host. The tail is too thin to refine, so most of it sits in
// coarse nodes' own counts; p99 must still land within one ladder bucket
// of the ladder's (and of the exact) p99, not inside the body.
func TestAdaptiveSparseTailAgreesWithLadder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixed := NewRegistry().Duration("lat", "")
		a := NewAdaptiveHistogram()
		xs := make([]float64, 10_000)
		for i := range xs {
			ns := 3e3 * math.Exp(0.3*rng.NormFloat64())
			if rng.Float64() < 0.02 {
				ns = 10e3 * math.Pow(100, rng.Float64())
			}
			xs[i] = ns / 1e9
			fixed.ObserveDuration(time.Duration(ns))
			a.Observe(time.Duration(ns))
		}
		sort.Float64s(xs)
		exact, lad, ada := xs[len(xs)*99/100], fixed.Quantile(0.99), a.Quantile(0.99)
		if !withinOneLadderBucket(LatencyBuckets(), lad, ada) || !withinOneLadderBucket(LatencyBuckets(), exact, ada) {
			t.Errorf("seed %d: p99 adaptive %v vs ladder %v, exact %v: more than one bucket apart", seed, ada, lad, exact)
		}
	}
}

// withinOneLadderBucket reports whether two values land in the same or
// adjacent buckets of the given ladder.
func withinOneLadderBucket(ladder []float64, x, y float64) bool {
	idx := func(v float64) int {
		for i, u := range ladder {
			if v <= u {
				return i
			}
		}
		return len(ladder)
	}
	d := idx(x) - idx(y)
	return d >= -1 && d <= 1
}

func TestAdaptiveHotRangesAndExemplars(t *testing.T) {
	a := NewAdaptiveHistogram()
	for i := 0; i < 900; i++ {
		a.Observe(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		a.ObserveExemplar(200*time.Millisecond, "tracetail", "spantail")
	}
	hot := a.HotRanges(0.05)
	if len(hot) == 0 {
		t.Fatal("no hot ranges on a bimodal stream")
	}
	var tailHot *AdaptiveHotRange
	for i := range hot {
		lo, hi := hot[i].LoSeconds, hot[i].HiSeconds
		if lo <= 0.2 && 0.2 <= hi {
			tailHot = &hot[i]
		}
		if hi < lo {
			t.Fatalf("inverted range %+v", hot[i])
		}
	}
	if tailHot == nil {
		t.Fatalf("no hot range covers the 200ms mode: %+v", hot)
	}
	found := false
	for _, ex := range tailHot.Exemplars {
		if ex.TraceID == "tracetail" && ex.SpanID == "spantail" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tail hot range missing its exemplar: %+v", tailHot)
	}
}

func TestAdaptiveRegister(t *testing.T) {
	r := NewRegistry()
	a := NewAdaptiveHistogram()
	a.Register(r, "apply")
	for i := 0; i < 100; i++ {
		a.Observe(2 * time.Millisecond)
	}
	got := map[string]float64{}
	for _, fam := range r.Snapshot() {
		for _, s := range fam.Series {
			if s.Labels["stage"] == "apply" {
				got[fam.Name] = s.Value
			}
		}
	}
	if got["rap_profile_observations_total"] != 100 {
		t.Fatalf("observations %v", got)
	}
	if p99 := got["rap_profile_p99_seconds"]; p99 < 1e-3 || p99 > 4e-3 {
		t.Fatalf("p99 %v, want ~2ms", p99)
	}
	if got["rap_profile_tree_nodes"] < 1 {
		t.Fatalf("nodes %v", got)
	}
	if _, ok := got["rap_profile_p50_seconds"]; !ok {
		t.Fatal("p50 series missing")
	}
}

func TestAdaptiveConcurrent(t *testing.T) {
	a := NewAdaptiveHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.ObserveExemplar(time.Duration(1+i%1000)*time.Microsecond, "t", "s")
				if i%100 == 0 {
					a.Quantile(0.99)
					a.HotRanges(0.1)
				}
			}
		}(g)
	}
	wg.Wait()
	if a.Count() != 8000 {
		t.Fatalf("count %d", a.Count())
	}
}
