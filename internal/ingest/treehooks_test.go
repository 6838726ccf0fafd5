package ingest

import (
	"testing"

	"rap/internal/core"
	"rap/internal/obs"
)

// TestTreeHooksEndToEnd drives a real tree with treeHooks installed and
// checks that the registry counters agree with the tree's own Stats and
// that every split and merge is buffered with the decision state.
func TestTreeHooksEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	var decided []decision
	cfg := core.DefaultConfig()
	cfg.UniverseBits = 16
	cfg.Epsilon = 0.05
	tree := core.MustNew(cfg)
	tree.SetHooks(treeHooks(reg, &decided, "0"))

	for i := 0; i < 200_000; i++ {
		tree.Add(uint64(i*2654435761) & 0xffff)
	}
	tree.Estimate(0, 1<<15)
	st := tree.Finalize()

	labels := []obs.Label{obs.L("shard", "0")}
	if got := reg.Counter(MetricTreeSplits, "", labels...).Value(); got != st.Splits {
		t.Fatalf("splits metric = %d, tree stats = %d", got, st.Splits)
	}
	if got := reg.Counter(MetricTreeMerges, "", labels...).Value(); got != st.Merges {
		t.Fatalf("merges metric = %d, tree stats = %d", got, st.Merges)
	}
	if got := reg.Counter(MetricTreeMergeBatches, "", labels...).Value(); got != st.MergeBatches {
		t.Fatalf("merge batches metric = %d, tree stats = %d", got, st.MergeBatches)
	}
	if got := reg.Histogram(MetricTreeMergeBatchDur, "", nil, labels...).Count(); got != st.MergeBatches {
		t.Fatalf("merge batch duration observations = %d, want %d", got, st.MergeBatches)
	}
	if got := reg.Histogram(MetricTreeEstimateDur, "", nil, labels...).Count(); got != 1 {
		t.Fatalf("estimate duration observations = %d, want 1", got)
	}

	splits, merges := 0, 0
	for _, d := range decided {
		switch d.name {
		case "split":
			splits++
			if float64(d.d.Count) <= d.d.Threshold {
				t.Fatalf("split recorded below threshold: %+v", d)
			}
		case "merge":
			merges++
		default:
			t.Fatalf("unknown decision %q", d.name)
		}
		if d.d.Hi < d.d.Lo || d.d.Shard != "0" || d.d.N == 0 {
			t.Fatalf("malformed decision %+v", d)
		}
	}
	if uint64(splits) != st.Splits || uint64(merges) != st.Merges {
		t.Fatalf("hooks buffered %d splits, %d merges; tree stats %d, %d", splits, merges, st.Splits, st.Merges)
	}
	if splits == 0 || merges == 0 {
		t.Fatalf("hooks buffered %d splits, %d merges; want both > 0", splits, merges)
	}
}
