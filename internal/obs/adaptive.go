package obs

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"rap/internal/core"
)

// AdaptiveHistogram is a latency histogram backed by a RAP tree over the
// nanosecond universe — the repo dogfooding its own data structure for
// telemetry. Where the fixed-ladder Histogram spends one bucket per
// octave everywhere, the tree splits exactly where the latency mass
// concentrates, so quantiles and HotRanges come back at adaptive
// resolution (ε·n-bounded) for the same bounded memory.
//
// The universe is [0, 2^UniverseBits) nanoseconds — the default 30 bits
// covers 0..~1.07s, beyond which a stage latency is an outage, not a
// profile; longer observations clamp to the top of the universe (and the
// fixed ladder still records their true octave). Observations optionally
// carry a span-ID exemplar, kept per octave, so a hot latency range links
// straight to a recorded trace.
//
// All methods are safe for concurrent use; the tree itself is not, so a
// mutex serializes access — these are per-batch/per-request observations
// (thousands per second), not per-event ones.
type AdaptiveHistogram struct {
	mu   sync.Mutex
	tree *core.Tree
	sum  float64 // seconds, mirroring Histogram.Sum

	// minNs/maxNs are the exact observed extremes (post-clamp), valid
	// whenever the tree is non-empty. Quantile uses them to clip node
	// ranges: tree mass only ever moves upward (splits leave counts in
	// place, merges fold children into ancestors), so a coarse node's
	// count still describes values inside [minNs, maxNs] even when the
	// node's range is far wider.
	minNs, maxNs uint64

	// exemplars[i] is the most recent exemplar whose value's highest set
	// bit is i — one slot per octave keeps slow-range exemplars from
	// being washed out by the fast-path flood.
	exemplars [adaptiveUniverseBits + 1]Exemplar
}

// Exemplar links one observed value to the span that produced it.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	ValueNs uint64 `json:"value_ns"`
}

// AdaptiveHotRange is one hot latency range with any exemplars that fall
// inside it.
type AdaptiveHotRange struct {
	LoSeconds float64    `json:"lo_seconds"`
	HiSeconds float64    `json:"hi_seconds"`
	Weight    uint64     `json:"weight"`
	Frac      float64    `json:"frac"`
	Depth     int        `json:"depth"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

const (
	// adaptiveUniverseBits sizes the nanosecond universe: 2^30 ns ≈ 1.07s.
	adaptiveUniverseBits = 30
	// adaptiveEpsilon is ε for the latency tree. Stage latencies are a
	// far smaller stream than the profiled workload, so a tight 0.1%
	// budget still keeps the tree tiny while making quantiles effectively
	// exact at the resolution the ladder comparison needs.
	adaptiveEpsilon = 0.001
	adaptiveMaxNs   = uint64(1)<<adaptiveUniverseBits - 1
)

// NewAdaptiveHistogram builds an adaptive latency histogram at the
// default operating point (30-bit ns universe, b=4, ε=0.1%).
func NewAdaptiveHistogram() *AdaptiveHistogram {
	cfg := core.DefaultConfig()
	cfg.UniverseBits = adaptiveUniverseBits
	cfg.Epsilon = adaptiveEpsilon
	return &AdaptiveHistogram{tree: core.MustNew(cfg)}
}

// Observe records one duration.
func (a *AdaptiveHistogram) Observe(d time.Duration) {
	a.ObserveExemplar(d, "", "")
}

// ObserveSince records the time elapsed since start.
func (a *AdaptiveHistogram) ObserveSince(start time.Time) {
	a.Observe(time.Since(start))
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// keeps a span exemplar for the value's octave so hot ranges can point at
// a concrete recorded trace.
func (a *AdaptiveHistogram) ObserveExemplar(d time.Duration, traceID, spanID string) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	if ns > adaptiveMaxNs {
		ns = adaptiveMaxNs
	}
	a.mu.Lock()
	if n := a.tree.N(); n == 0 || ns < a.minNs {
		a.minNs = ns
	}
	if ns > a.maxNs {
		a.maxNs = ns
	}
	a.tree.Add(ns)
	a.sum += d.Seconds()
	if traceID != "" {
		a.exemplars[bits.Len64(ns)] = Exemplar{TraceID: traceID, SpanID: spanID, ValueNs: ns}
	}
	a.mu.Unlock()
}

// Count returns the number of observations.
func (a *AdaptiveHistogram) Count() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.N()
}

// Sum returns the total observed seconds.
func (a *AdaptiveHistogram) Sum() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}

// NodeCount returns the tree's node count — the adaptive analogue of the
// ladder's fixed bucket count, and the number the dogfood exists to keep
// small.
func (a *AdaptiveHistogram) NodeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.NodeCount()
}

// Quantile returns the q-quantile in seconds. Like Histogram.Quantile it
// returns NaN on an empty histogram and clamps q into (0, 1].
//
// The tree's raw EstimateBounds bracket is too loose for quantiles: mass
// that accumulated at a coarse ancestor while the tree was shallow stays
// there, so a straddling query boundary can carry several percent of n
// in ambiguity — enough to collapse low quantiles to zero (charge it all
// left) or push high quantiles to the universe top (charge it all
// right). The histogram recovers the resolution with two facts the raw
// bracket ignores. First, a coarse node's count up to its split (at most
// the split threshold plus one) is an early sample of the same latency
// stream its descendants describe, so that part is redistributed down the
// tree in proportion to each child subtree's mass. Anything the node
// counted past that arrived after it split, so it fell where no live
// child covered it: a range whose child had been merged away. That is
// the thin part of the node's range, never its heaviest child, which
// held mass all along; so the surplus is spread over the node's range
// outside its heaviest child, by width. On a latency stream with a
// sparse tail spread over decades this is where the tail lives, and
// handing it to the children pro rata would pour it into the body.
// Second, the histogram tracks the exact observed extremes, so terminal
// segments are clipped to [minNs, maxNs] and the prefix-mass function hits
// exactly 0 below the minimum and exactly n at the maximum. Bisecting
// that function (with an ε·n slack on the target rank so redistribution
// leakage at a mass cliff cannot push the answer into an empty gap)
// lands within the tree's adaptive resolution at every quantile.
func (a *AdaptiveHistogram) Quantile(q float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.tree.N()
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	if rank < 1 {
		rank = 1
	}
	slack := 2 * adaptiveEpsilon * float64(n)
	if slack < 1 {
		slack = 1
	}
	target := rank - slack
	if target < 0.5 {
		target = 0.5
	}

	// Rebuild the node list with parent links (preorder depth stack),
	// then push every node's own count down to its terminal segments.
	type qnode struct {
		lo, hi    uint64
		own       float64
		parent    int
		sub       float64 // subtree mass (own counts only)
		extra     float64 // mass pushed down from ancestors
		rate      float64 // pushed mass per unit of child subtree mass
		hasChild  bool
		childMass float64
		heavy     int // child with the most subtree mass
	}
	nodes := make([]qnode, 0, 64)
	stack := make([]int, 0, 16)
	a.tree.Walk(func(ni core.NodeInfo) bool {
		parent := -1
		if ni.Depth > 0 {
			parent = stack[ni.Depth-1]
		}
		if len(stack) <= ni.Depth {
			stack = append(stack, len(nodes))
		} else {
			stack[ni.Depth] = len(nodes)
			stack = stack[:ni.Depth+1]
		}
		nodes = append(nodes, qnode{lo: ni.Lo, hi: ni.Hi, own: float64(ni.Count), parent: parent})
		return true
	})
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i].sub += nodes[i].own
		if p := nodes[i].parent; p >= 0 {
			nodes[p].sub += nodes[i].sub
			if !nodes[p].hasChild || nodes[i].sub > nodes[nodes[p].heavy].sub {
				nodes[p].heavy = i
			}
			nodes[p].hasChild = true
			nodes[p].childMass += nodes[i].sub
		}
	}

	type seg struct {
		lo, hi uint64
		c      float64
	}
	segs := make([]seg, 0, len(nodes))
	// spread adds a segment of mass c over [lo, hi] clipped to the
	// observed extremes; width is the length of that clipped range.
	spread := func(lo, hi uint64, c float64) {
		segs = append(segs, seg{lo: max(lo, a.minNs), hi: min(hi, a.maxNs), c: c})
	}
	width := func(lo, hi uint64) float64 {
		if lo, hi = max(lo, a.minNs), min(hi, a.maxNs); lo <= hi {
			return float64(hi - lo + 1)
		}
		return 0
	}
	early := math.Floor(a.tree.SplitThreshold()) + 1
	for i := range nodes {
		v := &nodes[i]
		if p := v.parent; p >= 0 {
			v.extra = nodes[p].rate * v.sub
		}
		m := v.own + v.extra
		if v.hasChild && v.childMass > 0 {
			// Descendants witnessed where the early sample lives: hand
			// it down pro rata. The count past it goes to the range
			// outside the heaviest child (see above), or over the whole
			// range when that child covers everything observed.
			if late := v.own - min(v.own, early); late > 0 {
				h := &nodes[v.heavy]
				var left, right float64
				if h.lo > v.lo {
					left = width(v.lo, h.lo-1)
				}
				if h.hi < v.hi {
					right = width(h.hi+1, v.hi)
				}
				if left+right == 0 {
					spread(v.lo, v.hi, late)
				}
				if left > 0 {
					spread(v.lo, h.lo-1, late*left/(left+right))
				}
				if right > 0 {
					spread(h.hi+1, v.hi, late*right/(left+right))
				}
				m -= late
			}
			v.rate = m / v.childMass
			continue
		}
		if m > 0 {
			spread(v.lo, v.hi, m)
		}
	}

	prefix := func(x uint64) float64 {
		s := 0.0
		for _, g := range segs {
			switch {
			case x >= g.hi:
				s += g.c
			case x >= g.lo:
				s += g.c * float64(x-g.lo+1) / float64(g.hi-g.lo+1)
			}
		}
		return s
	}
	lo, hi := a.minNs, a.maxNs
	for lo < hi {
		mid := lo + (hi-lo)/2
		if prefix(mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo) / 1e9
}

// HotRanges returns every latency range carrying at least theta of the
// observed mass, with any octave exemplars that fall inside the range
// attached. Bounds are reported in seconds.
func (a *AdaptiveHistogram) HotRanges(theta float64) []AdaptiveHotRange {
	a.mu.Lock()
	defer a.mu.Unlock()
	ranges := a.tree.HotRanges(theta)
	out := make([]AdaptiveHotRange, 0, len(ranges))
	for _, hr := range ranges {
		ahr := AdaptiveHotRange{
			LoSeconds: float64(hr.Lo) / 1e9,
			HiSeconds: float64(hr.Hi) / 1e9,
			Weight:    hr.Weight,
			Frac:      hr.Frac,
			Depth:     hr.Depth,
		}
		for _, ex := range a.exemplars {
			if ex.TraceID != "" && ex.ValueNs >= hr.Lo && ex.ValueNs <= hr.Hi {
				ahr.Exemplars = append(ahr.Exemplars, ex)
			}
		}
		out = append(out, ahr)
	}
	return out
}

// Register exposes the adaptive profile on reg as rap_profile_* series
// labeled by stage. The p50/p99 gauges are evaluated at scrape time, so
// the flight recorder's histogram-free series pick them up (and the
// profile_p99 alert rule can watch them) with no extra plumbing.
func (a *AdaptiveHistogram) Register(reg *Registry, stage string) {
	l := L("stage", stage)
	reg.GaugeFunc("rap_profile_p50_seconds", "Adaptive-histogram (RAP tree) median stage latency.",
		func() float64 { return a.Quantile(0.50) }, l)
	reg.GaugeFunc("rap_profile_p99_seconds", "Adaptive-histogram (RAP tree) p99 stage latency.",
		func() float64 { return a.Quantile(0.99) }, l)
	reg.CounterFunc("rap_profile_observations_total", "Observations recorded by the adaptive latency histogram.",
		func() float64 { return float64(a.Count()) }, l)
	reg.GaugeFunc("rap_profile_tree_nodes", "Node count of the adaptive latency histogram's RAP tree.",
		func() float64 { return float64(a.NodeCount()) }, l)
}
