package ingest

import (
	"time"

	"rap/internal/core"
	"rap/internal/obs"
	"rap/internal/span"
)

// Standard tree metric names. One place to keep exposition, docs, and
// tests agreeing.
const (
	MetricTreeSplits        = "rap_tree_splits_total"
	MetricTreeMerges        = "rap_tree_merges_total"
	MetricTreeMergeBatches  = "rap_tree_merge_batches_total"
	MetricTreeMergeBatchDur = "rap_tree_merge_batch_seconds"
	MetricTreeEstimateDur   = "rap_tree_estimate_seconds"
)

// decision is one split or merge a shard tree decided, buffered until
// apply records it as an event.
type decision struct {
	name string
	d    span.Decision
}

// treeHooks builds a core.Hooks that counts splits, merges, and merge
// batches, times merge batches and estimate queries, and appends split
// and merge decisions, labeled with shard, to *decided (nil: none). The
// hooks fire under the shard lock, which also guards *decided; apply
// records the buffer as events after letting go of the lock, so tracing
// never lengthens the critical section or the apply stage it times.
// Install the result with Tree.SetHooks; one hooks value per tree.
func treeHooks(reg *obs.Registry, decided *[]decision, shard string) *core.Hooks {
	labels := []obs.Label{obs.L("shard", shard)}
	splits := reg.Counter(MetricTreeSplits, "Split operations performed.", labels...)
	merges := reg.Counter(MetricTreeMerges, "Nodes folded into their parents.", labels...)
	batches := reg.Counter(MetricTreeMergeBatches, "Batched merge passes run.", labels...)
	batchDur := reg.Histogram(MetricTreeMergeBatchDur,
		"Wall time of one batched merge pass.", obs.DurationBuckets(), labels...)
	estDur := reg.Histogram(MetricTreeEstimateDur,
		"Latency of Estimate/EstimateBounds queries.", obs.DurationBuckets(), labels...)

	return &core.Hooks{
		Split: func(e core.SplitEvent) {
			splits.Inc()
			if decided != nil {
				*decided = append(*decided, decision{"split", span.Decision{
					Shard: shard, Lo: e.Lo, Hi: e.Hi, Depth: e.Depth,
					Count: e.Count, Threshold: e.Threshold, N: e.N,
				}})
			}
		},
		Merge: func(e core.MergeEvent) {
			merges.Inc()
			if decided != nil {
				*decided = append(*decided, decision{"merge", span.Decision{
					Shard: shard, Lo: e.Lo, Hi: e.Hi, Depth: e.Depth,
					Count: e.Count, Threshold: e.Threshold, N: e.N,
				}})
			}
		},
		MergeBatch: func(e core.MergeBatchEvent) {
			batches.Inc()
			batchDur.ObserveDuration(e.Duration)
		},
		EstimateDone: func(d time.Duration) {
			estDur.ObserveDuration(d)
		},
	}
}
