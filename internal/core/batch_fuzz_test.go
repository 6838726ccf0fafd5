package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzAddBatchEquivalence: random (value, weight) chunks fed through the
// batched entry points must produce a tree byte-identical — same snapshot
// encoding, hence same structure, counts, and schedule — to the same
// events fed one call at a time. This is the contract that lets every
// layer batch freely: chunking is purely an optimization, never a
// semantic change. The corpus bytes encode both the events and the chunk
// boundaries, so the fuzzer explores batch cuts landing on split and
// merge points.
func FuzzAddBatchEquivalence(f *testing.F) {
	// Seed: a skewed run with weights and ragged chunk sizes.
	var seed []byte
	for i := 0; i < 200; i++ {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(i%7)<<9|uint64(i%13))
		seed = append(seed, tmp[:]...)
		seed = append(seed, byte(1+i%4), byte(i%32))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := testConfig(16, 4, 0.05)
		cfg.FirstMerge = 16 // merge often: stale-finger bugs live here
		sequential := MustNew(cfg)
		viaSamples := MustNew(cfg)
		viaBatch := MustNew(cfg)

		// Decode records of 10 bytes: 8 value, 1 weight, 1 chunk-cut hint.
		type rec struct {
			v, w uint64
			cut  byte
		}
		var recs []rec
		for len(data) >= 10 {
			recs = append(recs, rec{
				v:   binary.LittleEndian.Uint64(data[:8]),
				w:   uint64(data[8]%8) + 1,
				cut: data[9],
			})
			data = data[10:]
		}
		if len(recs) > 4096 {
			recs = recs[:4096]
		}

		// Reference: one AddN call per record.
		for _, r := range recs {
			sequential.AddN(r.v, r.w)
		}

		// AddSamples in chunks cut where the corpus says.
		var chunk []Sample
		for _, r := range recs {
			chunk = append(chunk, Sample{Value: r.v, Weight: r.w})
			if r.cut%5 == 0 {
				viaSamples.AddSamples(chunk)
				chunk = chunk[:0]
			}
		}
		viaSamples.AddSamples(chunk)

		// AddBatch (weight-1 path): expand weights into repeated points.
		var points []uint64
		flush := func() {
			viaBatch.AddBatch(points)
			points = points[:0]
		}
		for _, r := range recs {
			for k := uint64(0); k < r.w; k++ {
				points = append(points, r.v)
			}
			if r.cut%3 == 0 {
				flush()
			}
		}
		flush()

		snapSeq, err := sequential.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		snapSamples, err := viaSamples.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapSeq, snapSamples) {
			t.Fatalf("AddSamples tree diverged from sequential AddN: %d vs %d snapshot bytes",
				len(snapSamples), len(snapSeq))
		}

		// The weight-1 expansion is a different call sequence (w Add calls
		// per record instead of one AddN), so its tree may legitimately
		// differ structurally; what must hold is the per-point reference:
		// feeding the same expanded points one Add at a time.
		expandSeq := MustNew(cfg)
		for _, r := range recs {
			for k := uint64(0); k < r.w; k++ {
				expandSeq.Add(r.v)
			}
		}
		snapExpand, err := expandSeq.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		snapBatch, err := viaBatch.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapExpand, snapBatch) {
			t.Fatalf("AddBatch tree diverged from sequential Add: %d vs %d snapshot bytes",
				len(snapBatch), len(snapExpand))
		}
	})
}
