package qsmt

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"qsmt/internal/anneal"
)

// The solve-loop equivalence digest: every public solve API, under the
// option sets that select different plans and tiers, renders its full
// observable outcome — verdict or error, witness, energy, attempt and
// shard counts, objective fields and every SolveStats counter — into a
// checked-in golden file. Refactors of the solve loop must leave the
// digest byte-identical. Only wall-clock durations are dropped; on
// Optimize rows the candidate counters and WarmHits are dropped too,
// because the optimize acceptor may stop scanning once the incumbent is
// proved optimal and whole-model warm hits are counted like every other
// tier's. Every configuration keeps the portfolio race off wherever a
// shard could exceed the exact threshold, so no race makes the witness
// depend on scheduling.
//
// Regenerate with: go test -run TestEngineEquivalenceDigest -update .

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

const equivalenceGolden = "testdata/engine_equivalence.golden"

// equivalenceConstraints mixes whole-model and decomposable shapes,
// an index witness, a variable-free model and the two unsat conjunctions
// that exhaust the retry budget.
func equivalenceConstraints() []Constraint {
	return []Constraint{
		Equality("qsmt"),
		Equality(""),
		Palindrome(6),
		PrefixOf("ab", 5),
		SuffixOf("yz", 5),
		CharAt('q', 2, 5),
		Includes("hello world", "wor"),
		Length(3, 5),
		Reverse("abc"),
		Periodic(2, 6),
		AvoidChars([]byte("aeiou"), 4),
		And(Palindrome(4), CharAt('x', 1, 4)),
		And(PrefixOf("ab", 4), PrefixOf("cd", 4)),
		And(Palindrome(4), PrefixOf("ab", 4), SuffixOf("ab", 4)),
	}
}

// renderOutcome is one digest line: the call's label, then either the
// error text or the result with its stats (durations zeroed).
func renderOutcome(label string, res *Result, err error, optimize bool) string {
	if err != nil {
		class := "error"
		switch {
		case errors.Is(err, ErrUnsatisfiable):
			class = "unsat"
		case errors.Is(err, ErrNoModel):
			class = "nomodel"
		}
		return fmt.Sprintf("%s: %s %q", label, class, err.Error())
	}
	st := res.Stats
	st.Compile, st.Presolve, st.Sample, st.DecodeVerify = 0, 0, 0, 0
	if optimize {
		st.Candidates, st.VerifyFailures, st.PenaltyViolations, st.WarmHits = 0, 0, 0, 0
	}
	return fmt.Sprintf("%s: sat witness=%+v energy=%v attempts=%d vars=%d shards=%d objective=%v values=%v bound=%v optimal=%v stats=%+v",
		label, res.Witness, res.Energy, res.Attempts, res.Vars, res.Shards,
		res.Objective, res.ObjectiveValues, res.ObjectiveBound, res.ObjectiveOptimal, st)
}

func equivalenceDigest(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var lines []string
	add := func(label string, res *Result, err error, optimize bool) {
		lines = append(lines, renderOutcome(label, res, err, optimize))
	}

	configs := []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 3}},
		{"shard", Options{Seed: 3, Shard: true, Portfolio: Off}},
		{"shard-noexact", Options{Seed: 3, Shard: true, ExactShardVars: -1, Portfolio: Off}},
		{"presolve-off", Options{Seed: 3, Shard: true, Presolve: Off, Portfolio: Off}},
		{"warmstart-off", Options{Seed: 3, WarmStart: Off}},
		{"custom-sa", Options{Seed: 3, Sampler: &anneal.SimulatedAnnealer{Reads: 24, Sweeps: 400, Seed: 5}}},
		{"custom-sa-shard", Options{Seed: 3, Shard: true, Sampler: &anneal.SimulatedAnnealer{Reads: 24, Sweeps: 400, Seed: 5}}},
		{"tabu", Options{Seed: 3, Sampler: &anneal.TabuSampler{Reads: 8, Seed: 9, Workers: 1}}},
	}
	for _, cfg := range configs {
		opts := cfg.opts
		s := NewSolver(&opts)
		for i, c := range equivalenceConstraints() {
			res, err := s.SolveContext(ctx, c)
			add(fmt.Sprintf("solve/%s/%d/%s", cfg.name, i, c.Name()), res, err, false)
		}
	}

	optimizeCases := []struct {
		name string
		hard []Constraint
		soft []SoftConstraint
	}{
		{"minlen-prefix", []Constraint{PrefixOf("ab", 4)}, []SoftConstraint{Soft(MinLength(4), 1)}},
		{"minedits-palindrome", []Constraint{Palindrome(4)}, []SoftConstraint{Soft(MinEditsFrom("abcd"), 1)}},
		{"mixed-softs", []Constraint{CharAt('a', 0, 3)}, []SoftConstraint{Soft(MinEditsFrom("abc"), 2), Soft(CharAt('z', 2, 3), 0.5)}},
		{"proved-optimal", []Constraint{SuffixOf("b", 2)}, []SoftConstraint{Soft(MinEditsFrom("ab"), 1)}},
		{"infeasible", []Constraint{PrefixOf("ab", 4), PrefixOf("cd", 4)}, []SoftConstraint{Soft(MinLength(4), 1)}},
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"whole", Options{Seed: 7}},
		{"shard", Options{Seed: 7, Shard: true, Portfolio: Off}},
	} {
		opts := mode.opts
		s := NewSolver(&opts)
		for _, oc := range optimizeCases {
			res, err := s.OptimizeContext(ctx, oc.hard, oc.soft)
			add("optimize/"+mode.name+"/"+oc.name, res, err, true)
		}
	}

	// A DFS lineage: a base, pinned children, a repeated frame (memo
	// hits throughout), a contradicting pin and a width change.
	is := NewSolver(&Options{Seed: 11, Portfolio: Off}).NewIncrementalSession()
	lineage := []Constraint{
		Palindrome(6),
		And(Palindrome(6), CharAt('m', 0, 6)),
		And(Palindrome(6), CharAt('m', 0, 6), CharAt('o', 1, 6)),
		And(Palindrome(6), CharAt('m', 0, 6)),
		And(Palindrome(6), CharAt('m', 0, 6), CharAt('q', 5, 6)),
		And(Palindrome(6), CharAt('n', 0, 6)),
		PrefixOf("ab", 4),
	}
	for i, c := range lineage {
		res, err := is.Solve(ctx, "x", c)
		add(fmt.Sprintf("incremental/%d/%s", i, c.Name()), res, err, false)
	}

	batch := equivalenceConstraints()
	br, err := NewSolver(&Options{Seed: 13, Portfolio: Off, BatchWorkers: 2}).SolveBatch(ctx, batch)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, it := range br.Items {
		add(fmt.Sprintf("batch/%d/%s", i, batch[i].Name()), it.Result, it.Err, false)
	}
	lines = append(lines, fmt.Sprintf("batch: solved=%d failed=%d shards=%d", br.Solved, br.Failed, br.Shards))
	return strings.Join(lines, "\n") + "\n"
}

// TestEngineEquivalenceDigest pins the observable behavior of every
// solve API against the checked-in digest.
func TestEngineEquivalenceDigest(t *testing.T) {
	got := equivalenceDigest(t)
	if *updateGolden {
		if err := os.WriteFile(equivalenceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(equivalenceGolden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", equivalenceGolden, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("digest line %d differs:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
