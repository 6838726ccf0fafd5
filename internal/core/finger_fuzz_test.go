package core

import (
	"slices"
	"testing"
)

// rootPath returns the slots a descent from the root visits for p, root
// first and the smallest live node covering p last. It is the reference
// the descent finger is checked against: it reads the tree only, derives
// child slots with childIndex rather than the cached cshift/cmask, and
// never touches the finger.
func (t *Tree) rootPath(p uint64) []uint32 {
	path := []uint32{0}
	for vi := uint32(0); ; {
		v := &t.arena[vi]
		if v.childBase == nilIdx {
			return path
		}
		ci := v.childBase + uint32(t.childIndex(v.plen, p))
		if t.arena[ci].dead {
			return path
		}
		path = append(path, ci)
		vi = ci
	}
}

// peekDescend returns the slot descend would return for p, leaving the
// finger as it found it.
func (t *Tree) peekDescend(p uint64) uint32 {
	finger, fp, top := t.finger, t.fingerP, t.fingerTop
	vi := t.descend(p)
	t.finger, t.fingerP, t.fingerTop = finger, fp, top
	return vi
}

// addRooted is AddN with every descent started from the root: the
// finger-free control the structural-rewrite tests compare against.
func (t *Tree) addRooted(p uint64, weight uint64) {
	t.dropFinger()
	t.AddN(p, weight)
}

// fingerCheck is a Tap that runs before every update's descent. It
// requires the finger to be a prefix of the root path of the point it was
// taken for, and the finger-resumed descent to land on the same slot as a
// root descent.
type fingerCheck struct {
	t      *testing.T
	tr     *Tree
	maxTop int
}

func (c *fingerCheck) Tap(p uint64, _ uint64) {
	tr := c.tr
	top := tr.fingerTop
	if path := tr.rootPath(tr.fingerP); top >= len(path) || !slices.Equal(tr.finger[:top+1], path[:top+1]) {
		c.t.Fatalf("finger %v for %#x is not a prefix of its root path %v", tr.finger[:top+1], tr.fingerP, path)
	}
	path := tr.rootPath(p)
	if got, want := tr.peekDescend(p), path[len(path)-1]; got != want {
		c.t.Fatalf("finger descent for %#x (finger %#x, depth %d) landed on slot %d, root descent on %d",
			p, tr.fingerP, top, got, want)
	}
	c.maxTop = max(c.maxTop, top)
}

func (c *fingerCheck) TreeReplaced() {}

// fingerConfigs are the geometries FuzzFingerDescent runs: uneven
// universes whose last level is narrower than the branch (w=63 at b=4,
// w=13 at b=8), the tallest tree a Config allows (w=64 at b=2, H=64, all
// 65 finger slots), and the default branch on a small universe.
var fingerConfigs = []Config{
	testConfig(63, 4, 0.05),
	testConfig(13, 8, 0.05),
	testConfig(64, 2, 0.05),
	testConfig(16, 4, 0.05),
}

// runFingerOps decodes data as a stream of tree operations and applies it
// to a tree built with fingerConfigs[cfgSel], with a fingerCheck
// installed on whichever tree is live. It returns the deepest finger the
// check saw.
func runFingerOps(t *testing.T, cfgSel byte, data []byte) int {
	cfg := fingerConfigs[int(cfgSel)%len(fingerConfigs)]
	cfg.FirstMerge = 16 // merge often: stale-finger bugs live here
	tr := MustNew(cfg)
	check := &fingerCheck{t: t}
	var adm Admitter
	install := func(nt *Tree) {
		tr = nt
		check.tr = nt
		nt.SetTap(check)
		nt.SetAdmitter(adm)
	}
	install(tr)

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// Points are one anchor with a single bit flipped (or none), plus a
	// low-bit jitter, so consecutive points share every prefix length
	// from 0 to 64 bits with each other and land on common deep paths.
	const anchor = 0x9e3779b97f4a7c15
	point := func() uint64 {
		b := next()
		p := uint64(anchor) ^ uint64(next()&3)
		if b < 192 {
			p ^= 1 << (b % 64)
		}
		return p
	}
	points := func() []uint64 {
		ps := make([]uint64, next()%16)
		for i := range ps {
			ps[i] = point()
		}
		return ps
	}

	for ops := 0; len(data) > 0 && ops < 512; ops++ {
		switch next() % 10 {
		case 0:
			tr.Add(point())
		case 1:
			p := point()
			tr.AddN(p, 1<<(next()%12))
		case 2:
			tr.AddBatch(points())
		case 3:
			ps := points()
			ss := make([]Sample, len(ps))
			for i, p := range ps {
				ss[i] = Sample{Value: p, Weight: uint64(next() % 4)}
			}
			tr.AddSamples(ss)
		case 4:
			ps := points()
			slices.Sort(ps)
			tr.AddSorted(ps)
		case 5:
			tr.MergeNow()
		case 6:
			other := MustNew(cfg)
			other.AddBatch(points())
			if err := tr.Merge(other); err != nil {
				t.Fatal(err)
			}
		case 7:
			donor := tr
			install(tr.Clone())
			donor.SetTap(nil)
			donor.Add(point()) // the donor's finger moves; the clone's must not care
		case 8:
			// Restore either the tree's own snapshot (same ranges, fresh
			// slot numbering) or a different tree's.
			src := tr
			if next()&1 == 1 {
				src = MustNew(cfg)
				src.AddBatch(points())
			}
			snap := mustMarshal(t, src)
			if err := tr.UnmarshalBinary(snap); err != nil {
				t.Fatal(err)
			}
			install(tr)
		case 9:
			if adm == nil {
				adm = denyOdd{}
			} else {
				adm = nil
			}
			tr.SetAdmitter(adm)
		}
	}
	if tr.Total() != tr.N() {
		t.Fatalf("tree lost events: Total=%d N=%d", tr.Total(), tr.N())
	}
	return check.maxTop
}

// deepOps is an op stream of 80 AddN calls on the anchor point at weight
// 2^11: each update splits the point's leaf once more, down to the
// singleton.
func deepOps() []byte {
	ops := make([]byte, 0, 4*80)
	for i := 0; i < 80; i++ {
		ops = append(ops, 1, 200, 0, 11)
	}
	return ops
}

// FuzzFingerDescent checks the descent finger against a root descent
// before every update, across every ingest entry point, interleaved with
// each structural rewrite that must drop the finger (merge batch, Merge,
// Clone, restore) and with admission refusals, which move the finger
// without crediting.
func FuzzFingerDescent(f *testing.F) {
	for sel := range fingerConfigs {
		f.Add(byte(sel), deepOps())
		f.Add(byte(sel), []byte{
			2, 15, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 60, 0, 61, 1, 62, 2, 63, 3, 200, 0, 200, 1, 200, 2, 200, 3, 7, 0, 9, 9,
			4, 12, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0,
			5, 6, 5, 200, 0, 200, 1, 7, 200, 0, 8, 0, 8, 1, 4, 200, 0, 200, 1, 9, 3, 3, 200, 0, 2, 200, 1, 3, 200, 2, 1,
		})
	}
	f.Fuzz(func(t *testing.T, cfgSel byte, data []byte) {
		runFingerOps(t, cfgSel, data)
	})
}

// TestFingerReachesFullHeight: on the tallest geometry (w=64, b=2) one hot
// point drives its path to the singleton, so the finger holds all 65
// depths and the resume lookup is exercised at the bottom of the table.
func TestFingerReachesFullHeight(t *testing.T) {
	if got := runFingerOps(t, 2, deepOps()); got != maxHeight {
		t.Fatalf("deepest finger %d, want %d", got, maxHeight)
	}
}
