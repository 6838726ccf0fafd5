package main

import (
	"bytes"
	"math"
	"sort"

	"rap/internal/stats"
	"rap/internal/trace"
	"rap/internal/workload"
)

// blockLen is the granularity of the exact prefix counts: the exact count
// of a range over any prefix is a stored block count plus a scan of at most
// blockLen-1 values.
const blockLen = 256

// stream is one seeded input: the values in order, the trace bytes the
// system under test receives, and exact counts for a fixed set of ranges
// recorded while generating.
type stream struct {
	values  []uint64
	data    []byte // trace.Writer encoding of values, each with weight 1
	offsets []int  // byte offset in data of event i*blockLen
	ranges  []span
	prefix  [][]uint32 // prefix[r][b]: events of ranges[r] among the first b*blockLen
}

// span is an inclusive value range.
type span struct{ lo, hi uint64 }

func (s span) has(v uint64) bool { return v >= s.lo && v <= s.hi }

// valueStream draws n events of a modeled benchmark's load-value stream.
func valueStream(bench string, seed uint64, n int) (*stream, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	src := b.Values(seed, uint64(n))
	values := make([]uint64, n)
	for i := range values {
		e, _ := src.Next()
		values[i] = e.Value
	}
	s := newStream(values, seed)
	var buf bytes.Buffer
	buf.Grow(5 * n)
	w := trace.NewWriter(&buf)
	for i, v := range values {
		if i%blockLen == 0 {
			if err := w.Flush(); err != nil {
				return nil, err
			}
			s.offsets = append(s.offsets, buf.Len())
		}
		if err := w.Write(trace.Event{Value: v, Weight: 1}); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	s.data = buf.Bytes()
	return s, nil
}

// zipfStream draws n points of Zipf(2^20, s=1.2) ranks.
func zipfStream(seed uint64, n int) *stream {
	rng := stats.NewSplitMix64(seed)
	z := stats.NewZipf(rng, 1<<20, 1.2)
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(z.Rank())
	}
	return newStream(values, seed)
}

// newStream records the checked ranges for values and their exact prefix
// counts. The ranges are drawn from the stream itself, so they cover hot
// points, wide bands and near-empty corners: the whole universe, bands
// between sampled quantiles, exact points and aligned neighbourhoods of
// sampled values, and narrow random ranges.
//
// A query's cost grows with the share of the tree inside its range, so the
// bands at random positions have fixed widths in sampled quantiles and the
// random ranges are narrow: the seed moves where a range lies, not how much
// of the stream it holds, and the cost of the /v1 mix stays about the same
// from seed to seed.
func newStream(values []uint64, seed uint64) *stream {
	rng := stats.NewSplitMix64(seed ^ 0x9e3779b97f4a7c15)
	sample := make([]uint64, 64)
	for i := range sample {
		sample[i] = values[rng.Intn(len(values))]
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	ranges := []span{
		{0, math.MaxUint64},
		{sample[6], sample[32]},
		{sample[32], sample[57]},
		{sample[16], sample[48]},
	}
	for _, bits := range []uint{0, 8, 16, 32} {
		v := sample[rng.Intn(len(sample))]
		mask := uint64(1)<<bits - 1
		ranges = append(ranges, span{v &^ mask, v | mask})
	}
	for _, w := range []int{2, 8, 16, 24} {
		i := rng.Intn(len(sample) - w)
		ranges = append(ranges, span{sample[i], sample[i+w]})
	}
	for i := 0; i < 2; i++ {
		a := rng.Uint64()
		ranges = append(ranges, span{a, a + min(math.MaxUint64-a, rng.Uint64()>>(24+rng.Intn(40)))})
	}

	s := &stream{values: values, ranges: ranges, prefix: make([][]uint32, len(ranges))}
	blocks := len(values)/blockLen + 1
	for r := range s.prefix {
		s.prefix[r] = make([]uint32, 1, blocks)
	}
	counts := make([]uint32, len(ranges))
	for i, v := range values {
		for r, sp := range ranges {
			if sp.has(v) {
				counts[r]++
			}
		}
		if (i+1)%blockLen == 0 {
			for r := range ranges {
				s.prefix[r] = append(s.prefix[r], counts[r])
			}
		}
	}
	return s
}

// exact is the true count of ranges[r] among the first n events.
func (s *stream) exact(r, n int) uint64 {
	b := n / blockLen
	c := uint64(s.prefix[r][b])
	for _, v := range s.values[b*blockLen : n] {
		if s.ranges[r].has(v) {
			c++
		}
	}
	return c
}

// chunk is the trace bytes of events [i, j), given that both are multiples
// of blockLen or j is the stream's end. The chunk from 0 carries the header.
func (s *stream) chunk(i, j int) []byte {
	from := s.offsets[i/blockLen]
	if i == 0 {
		from = 0 // offsets[0] is past the header
	}
	to := len(s.data)
	if j < len(s.values) {
		to = s.offsets[j/blockLen]
	}
	return s.data[from:to]
}

// events converts values[i:j] to weight-1 trace events.
func (s *stream) events(i, j int) []trace.Event {
	evs := make([]trace.Event, j-i)
	for k, v := range s.values[i:j] {
		evs[k] = trace.Event{Value: v, Weight: 1}
	}
	return evs
}
