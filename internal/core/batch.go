package core

// Batched ingest entry points. Queue drains (internal/ingest) and the
// sharded engine hand the tree chunks through these instead of one event
// at a time. They are plain loops over AddN: the speed of a strongly local
// stream (the paper's gzip and gcc value and address workloads, Section 4)
// comes from the descent finger every update shares (see Tree.descend),
// not from a batch-only path.

// Sample is one weighted event of a batch: the shape queue drains hand the
// tree (a trace.Event without the package dependency).
type Sample struct {
	Value  uint64
	Weight uint64
}

// AddBatch records every point in order. It is exactly a loop of Add over
// the points, so the resulting tree is byte-identical to sequential Add;
// the batch form only saves the caller the loop.
func (t *Tree) AddBatch(points []uint64) {
	for _, p := range points {
		t.AddN(p, 1)
	}
}

// AddSamples records a chunk of weighted events in order. It is exactly a
// loop of AddN(s.Value, s.Weight) over the samples; zero-weight samples
// are no-ops, as they are for AddN.
func (t *Tree) AddSamples(samples []Sample) {
	for _, s := range samples {
		t.AddN(s.Value, s.Weight)
	}
}

// AddSorted records an ascending pre-sorted chunk of points, coalescing
// each run of equal values into one weighted update. It is equivalent to
// calling AddN(value, runLength) per distinct value in order — the
// coalesced-update semantics of the hardware stage-0 buffer — not to
// per-point Add: a run's whole weight is credited to the range that was
// smallest when the run began. Sorted neighbours share long prefixes, so
// each descent resumes deep in the previous one's path.
func (t *Tree) AddSorted(points []uint64) {
	for i := 0; i < len(points); {
		j := i + 1
		for j < len(points) && points[j] == points[i] {
			j++
		}
		t.AddN(points[i], uint64(j-i))
		i = j
	}
}
