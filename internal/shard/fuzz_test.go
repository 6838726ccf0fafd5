package shard

import (
	"bytes"
	"reflect"
	"testing"

	"rap/internal/core"
)

// fuzzEngine builds a k-shard engine fed a fixed stream, the source of
// FuzzShardRestore's seeds and of the live state a rejected snapshot must
// preserve.
func fuzzEngine(t testing.TB, shards, events int) *Engine {
	e, err := New(testConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	e.AddBatch(zipfPoints(uint64(shards), events))
	e.Add(7)
	return e
}

func mustSnapshot(t testing.TB, e *Engine) []byte {
	data, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzShardRestore feeds arbitrary bytes to the RAPS snapshot decoder. A
// rejected snapshot must leave the engine exactly as it was (same N, same
// snapshot bytes); an accepted one must leave an engine that answers
// queries and re-snapshots to bytes Restore accepts again with equal N.
func FuzzShardRestore(f *testing.F) {
	f.Add(mustSnapshot(f, fuzzEngine(f, 2, 5_000)))
	f.Add(mustSnapshot(f, fuzzEngine(f, 2, 0)))
	f.Add(mustSnapshot(f, fuzzEngine(f, 1, 500))) // shard-count mismatch
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	live := mustSnapshot(f, fuzzEngine(f, 2, 1_000))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := New(testConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(live); err != nil {
			t.Fatal(err)
		}
		n0, snap0 := e.N(), mustSnapshot(t, e)
		if err := e.Restore(data); err != nil {
			if e.N() != n0 || !bytes.Equal(mustSnapshot(t, e), snap0) {
				t.Fatalf("rejected Restore (%v) changed the engine", err)
			}
			return
		}
		n := e.N()
		e.Estimate(0, ^uint64(0)) // merges the shards: configs must agree
		again, err := New(testConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.Restore(mustSnapshot(t, e)); err != nil {
			t.Fatalf("re-snapshot of an accepted Restore rejected: %v", err)
		}
		if again.N() != n {
			t.Fatalf("re-snapshot round trip N = %d, want %d", again.N(), n)
		}
	})
}

// denyAll refuses every event, so its shard holds offered mass with n = 0.
type denyAll struct{}

func (denyAll) Admit(uint64, uint64, int) bool { return false }
func (denyAll) Pulse(core.Stats)               {}
func (denyAll) TreeReplaced()                  {}

// epochOps encodes a FuzzEpochUnion input: shard count k (1..4), two gate
// bits per shard (1: denyOdd, 2: denyAll), then 4-byte ops.
func epochOps(k int, gates byte, ops ...[4]byte) []byte {
	data := []byte{byte(k - 1), gates}
	for _, op := range ops {
		data = append(data, op[:]...)
	}
	return data
}

// FuzzEpochUnion checks that the union epochs, MergedTree and
// MergedTreeCut are built from (skip empty shards, clone the largest,
// graft the rest without the split re-check) answers exactly like the
// reference union built with core.MustNew and a Merge of every shard
// clone. Each 4-byte op is [kind|weight, shard, point hi, point lo]:
// AddN or a short AddSamples run on one shard, MergeNow on one shard,
// Engine.Merge of a small foreign tree, or a publish followed by a check.
// Shards may stay empty or sit behind an admitter that refuses weight.
func FuzzEpochUnion(f *testing.F) {
	f.Add(epochOps(4, 0, [4]byte{0x08, 2, 0, 7}, [4]byte{0x10, 2, 1, 0}, [4]byte{0x04, 2, 0, 3}, [4]byte{0x07, 2, 0, 0}))
	f.Add(epochOps(4, 0x98, // shard 1 denyOdd, shard 2 denyAll
		[4]byte{0x00, 0, 0, 1}, [4]byte{0x09, 1, 0, 3}, [4]byte{0x0c, 2, 0, 4}, [4]byte{0x15, 3, 0, 0},
		[4]byte{0x06, 1, 0, 9}, [4]byte{0x07, 0, 0, 0}, [4]byte{0xfc, 3, 0x80, 0}, [4]byte{0x05, 1, 0, 0}))
	f.Add(epochOps(2, 0x08, [4]byte{0x0c, 1, 0, 2}, [4]byte{0x07, 0, 0, 0}))
	f.Add(epochOps(3, 0, [4]byte{0xf8, 0, 0xff, 0xff}, [4]byte{0x06, 2, 0, 1}, [4]byte{0x04, 1, 0x10, 0}))
	f.Add(epochOps(1, 1, [4]byte{0x3c, 0, 0, 5}, [4]byte{0x01, 0, 0, 6}))
	f.Add([]byte{3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, gates := 1+int(data[0]%4), data[1]
		e, err := New(testConfig(), k)
		if err != nil {
			t.Fatal(err)
		}
		e.SetShardAdmitters(func(i int) core.Admitter {
			switch gates >> (2 * i) & 3 {
			case 1:
				return denyOdd{}
			case 2:
				return denyAll{}
			}
			return nil
		})
		e.EnableReadSnapshots(1 << 40) // only the explicit publishes below
		for ops := data[2:]; len(ops) >= 4; ops = ops[4:] {
			s := int(ops[1]) % k
			p := uint64(ops[2])<<8 | uint64(ops[3])
			w := uint64(ops[0]>>3) + 1
			if w == 32 {
				w = 1 << 20
			}
			switch ops[0] & 7 {
			case 0, 1, 2, 3:
				e.WithShard(s, func(tr *core.Tree) { tr.AddN(p, w) })
			case 4:
				run := make([]core.Sample, w%64)
				for i := range run {
					run[i] = core.Sample{Value: p + uint64(i*i), Weight: uint64(i%3) + 1}
				}
				e.WithShard(s, func(tr *core.Tree) { tr.AddSamples(run) })
			case 5:
				e.WithShard(s, func(tr *core.Tree) { tr.MergeNow() })
			case 6:
				other := core.MustNew(e.Config())
				other.AddBatch(zipfPoints(p, int(w%64)*8))
				if err := e.Merge(other); err != nil {
					t.Fatal(err)
				}
			case 7:
				e.PublishNow()
				checkEpochUnion(t, e)
			}
		}
		e.PublishNow()
		checkEpochUnion(t, e)
	})
}

// checkEpochUnion compares the current epoch, MergedTreeCut and
// MergedTree against a reference union built the way epochs were built
// before they were clones: an empty tree with every shard Merged in.
func checkEpochUnion(t *testing.T, e *Engine) {
	t.Helper()
	ref := core.MustNew(e.Config())
	var merr error
	for i := 0; i < e.Shards(); i++ {
		e.WithShard(i, func(tr *core.Tree) {
			if err := ref.Merge(tr.Clone()); err != nil && merr == nil {
				merr = err
			}
		})
	}
	if merr != nil {
		t.Fatal(merr)
	}
	ep := e.Reader()
	defer ep.Release()
	if ep.N() != ref.N() {
		t.Fatalf("epoch N = %d, reference %d", ep.N(), ref.N())
	}
	for name, got := range map[string]*core.Tree{
		"epoch": ep.Tree(), "cut": e.MergedTreeCut(nil), "merged": e.MergedTree(),
	} {
		sameAnswers(t, name, got, ref)
	}
}

// unionGrid is the range grid sameAnswers queries: every pair of these
// 16-bit edges, dense where testConfig's Zipf streams put their mass.
var unionGrid = []uint64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 255, 256,
	1000, 4095, 4096, 32767, 32768, 65534, 65535}

// sameAnswers fails unless got answers every query exactly like want: N,
// the unadmitted ledger, Estimate and EstimateBounds over unionGrid, and
// HotRanges at several thresholds.
func sameAnswers(t *testing.T, name string, got, want *core.Tree) {
	t.Helper()
	if got.N() != want.N() || got.UnadmittedN() != want.UnadmittedN() {
		t.Fatalf("%s: N %d unadmitted %d, reference N %d unadmitted %d",
			name, got.N(), got.UnadmittedN(), want.N(), want.UnadmittedN())
	}
	for i, lo := range unionGrid {
		for _, hi := range unionGrid[i:] {
			if g, w := got.Estimate(lo, hi), want.Estimate(lo, hi); g != w {
				t.Fatalf("%s: Estimate(%d, %d) = %d, reference %d", name, lo, hi, g, w)
			}
			gl, gh := got.EstimateBounds(lo, hi)
			wl, wh := want.EstimateBounds(lo, hi)
			if gl != wl || gh != wh {
				t.Fatalf("%s: EstimateBounds(%d, %d) = [%d, %d], reference [%d, %d]",
					name, lo, hi, gl, gh, wl, wh)
			}
		}
	}
	for _, theta := range []float64{0.001, 0.01, 0.05, 0.2, 0.5, 1} {
		if g, w := got.HotRanges(theta), want.HotRanges(theta); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: HotRanges(%v) = %+v, reference %+v", name, theta, g, w)
		}
	}
}
