package shard

import (
	"bytes"
	"testing"
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
