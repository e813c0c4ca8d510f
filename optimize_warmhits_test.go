package qsmt

import "testing"

// TestWholeModelOptimizeCountsWarmHits: a whole-model Optimize attempt
// offered warm-start states must count the attempts whose best sample
// came from a warm read, like every other sampled unit does — the
// warm-start hit rate (qsmt_presolve_warm_hits_total over
// qsmt_presolve_warm_seeded_total) would otherwise read 0 for every
// unsharded Optimize.
func TestWholeModelOptimizeCountsWarmHits(t *testing.T) {
	res, err := NewSolver(&Options{Seed: 7}).Optimize(
		[]Constraint{PrefixOf("ab", 4)},
		[]SoftConstraint{Soft(MinLength(4), 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.WarmSeeded == 0 {
		t.Fatal("no attempt was warm-seeded; the test needs the default warm starts")
	}
	if st.WarmHits == 0 || st.WarmHits > st.WarmSeeded {
		t.Errorf("WarmHits = %d over %d warm-seeded attempts, want 1..%d", st.WarmHits, st.WarmSeeded, st.WarmSeeded)
	}
}
