package rap_test

import (
	"reflect"
	"strings"
	"testing"

	"rap"
)

// TestProfilerSignatureGuard pins the deprecated Profiler surface: every
// method the seed interface exposed must keep its exact signature. The
// Writer/Reader split may grow new facets, but existing callers holding
// a Profiler must never need to change.
func TestProfilerSignatureGuard(t *testing.T) {
	want := map[string]string{
		"Add":            "func(uint64)",
		"AddN":           "func(uint64, uint64)",
		"AddBatch":       "func([]uint64)",
		"N":              "func() uint64",
		"Estimate":       "func(uint64, uint64) uint64",
		"EstimateBounds": "func(uint64, uint64) (uint64, uint64)",
		"HotRanges":      "func(float64) []core.HotRange",
		"Stats":          "func() core.Stats",
		"Finalize":       "func() core.Stats",
		"Snapshot":       "func() ([]uint8, error)",
	}
	typ := reflect.TypeOf((*rap.Profiler)(nil)).Elem()
	got := map[string]string{}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		got[m.Name] = m.Type.String()
	}
	for name, sig := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("Profiler lost method %s (want %s)", name, sig)
			continue
		}
		if g != sig {
			t.Errorf("Profiler.%s signature changed: %s, want %s", name, g, sig)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("Profiler grew unreviewed method %s — update the guard deliberately", name)
		}
	}
}

// TestReaderOfAllEngines checks the epoch escape hatch across the
// engines, the one-shard single-lock engine included: consistent-cut
// engines hand back a working epoch, the sampling engine reports
// ok=false.
func TestReaderOfAllEngines(t *testing.T) {
	feed := func(p rap.Writer) {
		for i := uint64(0); i < 20_000; i++ {
			p.Add(i % 997)
		}
	}
	cases := []struct {
		name string
		opts []rap.Option
		ok   bool
	}{
		{"tree", nil, true},
		{"concurrent", []rap.Option{rap.WithSharding(1), rap.WithReadSnapshots(1024)}, true},
		{"concurrent-no-snapshots", []rap.Option{rap.WithSharding(1)}, true},
		{"sharded", []rap.Option{rap.WithSharding(4), rap.WithReadSnapshots(1024)}, true},
		{"sampled", []rap.Option{rap.WithSampling(8)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := rap.New(append([]rap.Option{rap.WithUniverse(1 << 20), rap.WithEpsilon(0.05)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			feed(p)
			e, ok := rap.ReaderOf(p)
			if ok != c.ok {
				t.Fatalf("ReaderOf ok = %v, want %v", ok, c.ok)
			}
			if !ok {
				return
			}
			defer e.Release()
			// Published epochs may trail the live head by up to the
			// snapshot cadence; detached cuts are exact.
			n0 := e.N()
			if n0 > 20_000 || n0 < 20_000-2048 {
				t.Fatalf("epoch N = %d, want within one cadence of 20000", n0)
			}
			lo, hi := e.EstimateBounds(0, 1<<20-1)
			if lo > hi || hi != n0 {
				t.Fatalf("epoch full-range bounds (%d, %d), want high = %d", lo, hi, n0)
			}
			// The epoch is a cut: later writes must not leak in.
			p.Add(1)
			if e.N() != n0 {
				t.Fatalf("epoch N moved to %d after a later write", e.N())
			}
		})
	}
}

// TestWithReadSnapshotsEngineSelection: the option needs an engine with
// a decoupled read path and must reject the ones without.
func TestWithReadSnapshotsEngineSelection(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []rap.Option
	}{
		{"plain", []rap.Option{rap.WithReadSnapshots(0)}},
		{"sampled", []rap.Option{rap.WithSampling(8), rap.WithReadSnapshots(0)}},
	} {
		if _, err := rap.New(c.opts...); err == nil {
			t.Errorf("%s: WithReadSnapshots accepted on an engine with no concurrent read path", c.name)
		} else if !strings.Contains(err.Error(), "read path") {
			t.Errorf("%s: unhelpful error %q", c.name, err)
		}
	}
	for _, c := range []struct {
		name string
		opts []rap.Option
	}{
		{"concurrent", []rap.Option{rap.WithSharding(1), rap.WithReadSnapshots(0)}},
		{"sharded", []rap.Option{rap.WithSharding(2), rap.WithReadSnapshots(0)}},
	} {
		p, err := rap.New(c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e, ok := rap.ReaderOf(p.(rap.Reader))
		if !ok || e == nil {
			t.Fatalf("%s: no epoch from engine built with WithReadSnapshots", c.name)
		}
		if e.Seq() == 0 {
			t.Fatalf("%s: epoch seq 0 — engine served a detached fallback, snapshots not enabled", c.name)
		}
		e.Release()
	}
}

// TestFinalizePublishesEpoch: Finalize's merge batches change the
// profile, so with read snapshots on it must publish a fresh epoch —
// pinned readers and lock-free queries then see the whole finalized
// stream, not the last cadence boundary before it.
func TestFinalizePublishesEpoch(t *testing.T) {
	for _, k := range []int{1, 4} {
		p, err := rap.New(rap.WithSharding(k), rap.WithReadSnapshots(0))
		if err != nil {
			t.Fatal(err)
		}
		const n = 100_000 // not a multiple of the default 64Ki cadence
		for i := uint64(0); i < n; i++ {
			p.Add(i * 2654435761)
		}
		if st := p.Finalize(); st.N != n {
			t.Fatalf("k=%d: Finalize N = %d, want %d", k, st.N, n)
		}
		e, ok := rap.ReaderOf(p)
		if !ok {
			t.Fatalf("k=%d: no epoch from ReaderOf", k)
		}
		if e.CutN() != n {
			t.Errorf("k=%d: pinned epoch cut at %d after Finalize, want %d", k, e.CutN(), n)
		}
		e.Release()
		if got := p.Estimate(0, ^uint64(0)); got != n {
			t.Errorf("k=%d: full-universe estimate %d after Finalize, want %d", k, got, n)
		}
	}
}
