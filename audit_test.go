package rap_test

import (
	"math/rand"
	"strings"
	"testing"

	"rap"
)

// auditWorkload feeds one randomized stream shape into p, running an
// audit pass every passEvery events, and returns the total event count.
func auditWorkload(t *testing.T, p rap.Profiler, a *rap.Auditor, shape string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 8, 1<<20-1)
	const n = 120_000
	batch := make([]uint64, 0, 256)
	for i := 0; i < n; i++ {
		var v uint64
		switch shape {
		case "zipf":
			v = zipf.Uint64()
		case "uniform":
			v = rng.Uint64() & (1<<20 - 1)
		case "spans":
			// Adversarial: long runs sweeping disjoint blocks, so mass
			// concentrates in a few subtrees and forces deep splits.
			v = uint64(i/4096)<<12 | uint64(i)&0xfff
		}
		if i%2 == 0 {
			p.Add(v)
		} else {
			batch = append(batch, v)
			if len(batch) == cap(batch) {
				p.AddBatch(batch)
				batch = batch[:0]
			}
		}
		if i%20_000 == 19_999 {
			checkAuditPass(t, a, shape)
		}
	}
	p.AddBatch(batch)
	rep := checkAuditPass(t, a, shape)
	if rep.N != p.N() {
		t.Fatalf("%s: audit saw n=%d, engine n=%d", shape, rep.N, p.N())
	}
	if rep.TapN != rep.N {
		t.Fatalf("%s: tap mass %d != stream mass %d (cold attach must see everything)",
			shape, rep.TapN, rep.N)
	}
}

// checkAuditPass runs one audit pass and asserts the paper's accuracy
// contract held: no violations, and every underestimate inside the
// certified budget.
func checkAuditPass(t *testing.T, a *rap.Auditor, shape string) rap.AuditReport {
	t.Helper()
	rep, err := a.Audit()
	if err != nil {
		t.Fatalf("%s: audit: %v", shape, err)
	}
	if rep.Verdict != "ok" {
		t.Fatalf("%s: verdict %q, report %+v", shape, rep.Verdict, rep)
	}
	if rep.ViolationsTotal != 0 {
		t.Fatalf("%s: %d accuracy violations", shape, rep.ViolationsTotal)
	}
	if float64(rep.MaxUnderestimate) > rep.Budget {
		t.Fatalf("%s: max underestimate %d exceeds certified budget %v",
			shape, rep.MaxUnderestimate, rep.Budget)
	}
	return rep
}

// TestAuditedEnginesEndToEnd drives every auditable engine through
// randomized zipf, uniform, and adversarial-span streams via the public
// facade and asserts the self-audit never fires.
func TestAuditedEnginesEndToEnd(t *testing.T) {
	engines := []struct {
		name string
		opt  []rap.Option
	}{
		{"tree", nil},
		{"concurrent", []rap.Option{rap.WithSharding(1)}},
		{"sharded", []rap.Option{rap.WithSharding(4)}},
	}
	for _, eng := range engines {
		for i, shape := range []string{"zipf", "uniform", "spans"} {
			t.Run(eng.name+"/"+shape, func(t *testing.T) {
				a := rap.NewAuditor(rap.AuditOptions{
					MaxRanges:    24,
					SpanBits:     10,
					SamplePeriod: 64,
					Seed:         uint64(i + 1),
				})
				opts := append([]rap.Option{
					rap.WithUniverseBits(20),
					rap.WithEpsilon(0.05),
					rap.WithAudit(a),
				}, eng.opt...)
				p, err := rap.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				auditWorkload(t, p, a, shape, int64(41+i))
			})
		}
	}
}

// TestWithAuditRejectsSampling: a sampling engine's scaled estimates are
// not bound to the tapped stream, so the combination must be refused at
// construction instead of producing false violations at runtime.
func TestWithAuditRejectsSampling(t *testing.T) {
	a := rap.NewAuditor(rap.AuditOptions{})
	_, err := rap.New(rap.WithSampling(8), rap.WithAudit(a))
	if err == nil {
		t.Fatal("audit + sampling accepted")
	}
	if !strings.Contains(err.Error(), "WithAudit") {
		t.Fatalf("error does not name the offending option: %v", err)
	}
}

// TestWithAuditNilRejected: a nil auditor is a caller bug, not a request
// to silently disable auditing.
func TestWithAuditNilRejected(t *testing.T) {
	if _, err := rap.New(rap.WithAudit(nil)); err == nil {
		t.Fatal("WithAudit(nil) accepted")
	}
}

// TestAuditorSingleUse: an auditor binds to exactly one engine; wiring it
// into a second must fail rather than interleave two streams' truth.
func TestAuditorSingleUse(t *testing.T) {
	a := rap.NewAuditor(rap.AuditOptions{})
	if _, err := rap.New(rap.WithUniverseBits(20), rap.WithAudit(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := rap.New(rap.WithUniverseBits(20), rap.WithAudit(a)); err == nil {
		t.Fatal("auditor attached to a second engine")
	}
}
