package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/baseline"
	"qsmt/internal/core"
	"qsmt/internal/smtlib"
)

// groundWitness renders the planted state as a witness.
func groundWitness(p *planted) qsmt.Witness {
	b := make([]byte, p.n)
	for i, s := range p.spins {
		b[i] = '0'
		if s > 0 {
			b[i] = '1'
		}
	}
	return qsmt.Witness{Kind: qsmt.WitnessString, Str: string(b)}
}

func flip(s string, i int) string {
	b := []byte(s)
	b[i] ^= 1
	return string(b)
}

// TestPlantedGroundEnergy checks the planted energy against the exact
// minimum of the compiled QUBO on single blocks of up to 20 variables.
func TestPlantedGroundEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for m := plantedMinBlock; m <= 20; m++ {
		for rep := 0; rep < 3; rep++ {
			p := &planted{pairs: map[[2]int]int{}}
			p.addBlock(rng, m)
			if err := p.verify(groundWitness(p)); err != nil {
				t.Fatalf("m=%d: planted state rejected: %v", m, err)
			}
			model, err := p.BuildModel()
			if err != nil {
				t.Fatal(err)
			}
			ss, err := (&anneal.ExactSolver{}).Sample(model.Compile())
			if err != nil {
				t.Fatal(err)
			}
			if got := ss.Best().Energy; got != float64(p.ground) {
				t.Fatalf("m=%d: exact minimum %v, planted energy %d", m, got, p.ground)
			}
		}
	}
}

// TestCorruptedWitnessFailsRun corrupts one witness of each kind and
// checks that the reference checks reject it and that a rejected answer
// fails the whole run with no result.
func TestCorruptedWitnessFailsRun(t *testing.T) {
	p := newPlanted(rand.New(rand.NewSource(3)))
	w := groundWitness(p)
	if err := p.verify(w); err != nil {
		t.Fatalf("ground witness rejected: %v", err)
	}
	w.Str = flip(w.Str, 0)
	if err := p.verify(w); !errors.Is(err, errWrong) {
		t.Fatalf("corrupted planted witness: err = %v, want errWrong", err)
	}

	c := qsmt.Palindrome(5)
	res, err := qsmt.NewSolver(nil).Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := refCheck(c, res.Witness); err != nil {
		t.Fatalf("solver witness rejected: %v", err)
	}
	bad := res.Witness
	bad.Str = "x" + bad.Str[1:]
	if bad.Str == res.Witness.Str {
		bad.Str = "y" + bad.Str[1:]
	}
	if err := refCheck(c, bad); !errors.Is(err, errWrong) {
		t.Fatalf("corrupted palindrome witness: err = %v, want errWrong", err)
	}

	m := newPosModel(4)
	m.restrict(0, []byte{'a'})
	if err := m.judge(smtlib.StatusSat, map[string]smtlib.Value{"x": {Str: "bbbb"}}); !errors.Is(err, errWrong) {
		t.Fatalf("corrupted session model: err = %v, want errWrong", err)
	}

	res2, err := run("corrupt", func(int64) (instance, error) { return corruptInstance{}, nil }, 1, 1, false)
	if !errors.Is(err, errWrong) || res2 != nil {
		t.Fatalf("run with a wrong answer: result %v, err %v; want no result and errWrong", res2, err)
	}
}

// corruptInstance answers one call with a corrupted planted witness.
type corruptInstance struct{}

func (corruptInstance) prepare(int) error { return nil }

func (corruptInstance) round(*tracer) ([]callRec, error) {
	p := newPlanted(rand.New(rand.NewSource(5)))
	w := groundWitness(p)
	w.Str = flip(w.Str, len(w.Str)-1)
	return []callRec{{lat: time.Millisecond, answers: 1}}, p.verify(w)
}

func (corruptInstance) probe(*probes) error { return nil }
func (corruptInstance) close()              {}

// TestUnsatByConstruction confirms the unsat conjunctions of solve_mix
// with the brute-force baseline. Characters outside the ones the
// constraints name are interchangeable, so one extra letter completes
// the alphabet.
func TestUnsatByConstruction(t *testing.T) {
	for _, c := range []qsmt.Constraint{
		qsmt.And(qsmt.PrefixOf("ab", 4), qsmt.PrefixOf("cd", 4)),
		qsmt.And(qsmt.Palindrome(4), qsmt.PrefixOf("ab", 4), qsmt.SuffixOf("ab", 4)),
	} {
		bf := &baseline.BruteForce{Alphabet: []byte("abcdq")}
		if w, err := bf.Solve(c); err == nil {
			t.Fatalf("%s: brute force found %q", c.Name(), w.Str)
		}
	}
	// The generated unsat conjunctions are two prefixes whose first
	// characters differ.
	unsat := 0
	for _, q := range mixQueries(9) {
		if !q.unsat {
			continue
		}
		unsat++
		ms := q.c.(*core.Conjunction).Members
		if len(ms) == 2 {
			a, b := ms[0].(*core.PrefixOf).Prefix, ms[1].(*core.PrefixOf).Prefix
			if a[0] == b[0] {
				t.Fatalf("%s: prefixes share their first character", describe(q.c))
			}
		}
	}
	if unsat < 4 {
		t.Fatalf("%d unsat queries, want the two probes and the generated ones", unsat)
	}
}

// TestSessionReference checks the session reference model on a pinned
// palindrome.
func TestSessionReference(t *testing.T) {
	m := newPosModel(4)
	for i := 0; i < 2; i++ {
		m.union(i, 3-i)
	}
	m.restrict(0, []byte{'a'})
	if !m.sat() || !m.holds("abba") || m.holds("abbb") {
		t.Fatal("palindrome with a pinned end misjudged")
	}
	m.restrict(3, []byte{'b'})
	if m.sat() {
		t.Fatal("palindrome pinned to different ends judged sat")
	}
}

// TestAttributionAddsUp checks that layer self times plus the residue
// equal the traced wall time, with concurrent children split evenly.
func TestAttributionAddsUp(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, QID: 1, Layer: "qsmt", Start: 0, End: 100})
	tr.add(span{ID: 2, Parent: 1, QID: 1, Layer: "remote", Start: 10, End: 60})
	tr.add(span{ID: 3, Parent: 2, QID: 1, Layer: "portfolio", Start: 20, End: 50})
	tr.add(span{ID: 4, Parent: 1, QID: 1, Layer: "remote", Start: 40, End: 80})
	tr.phases = append(tr.phases, phase{QID: 1, Layer: "qubo", Dur: 5})
	att, err := tr.attribute(120)
	if err != nil {
		t.Fatal(err)
	}
	// [10,20) remote; [20,40) portfolio; [40,50) split portfolio and
	// remote; [50,80) remote; 30ns uncovered, 5 of them qubo.
	want := map[string]time.Duration{"remote": 45, "portfolio": 25, "qubo": 5, "qsmt": 25}
	for l, d := range want {
		if att.self[l] != d {
			t.Errorf("%s self = %v, want %v", l, att.self[l], d)
		}
	}
	if att.residue != 20 {
		t.Errorf("residue = %v, want 20ns", att.residue)
	}
}

// TestAttributionCatchesDoubleCounting checks that phase time the spans
// leave no room for is reported as clamped, and fails the attribution
// once it exceeds the tolerance.
func TestAttributionCatchesDoubleCounting(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, QID: 1, Layer: "qsmt", Start: 0, End: 1000})
	tr.add(span{ID: 2, Parent: 1, QID: 1, Layer: "core", Start: 0, End: 900})
	tr.phases = append(tr.phases, phase{QID: 1, Layer: "qubo", Dur: 105})
	att, err := tr.attribute(1000)
	if err != nil {
		t.Fatal(err)
	}
	if att.clamped != 5 || att.clampedCalls != 1 || att.self["qubo"] != 100 {
		t.Fatalf("clamped %v in %d calls, qubo self %v; want 5ns, 1, 100ns", att.clamped, att.clampedCalls, att.self["qubo"])
	}
	tr.phases[0].Dur = 200
	if _, err := tr.attribute(1000); err == nil {
		t.Fatal("100ns of double-counted phase time in a 1000ns wall passed")
	}
}

// TestScriptChecksEveryVerdict checks that the scripts are cut at each
// check-sat and that a wrong answer to an inner check-sat is caught.
func TestScriptChecksEveryVerdict(t *testing.T) {
	pieces, tail := splitChecks("; (check-sat) in a comment\n(echo \"(check-sat)\")\n(push)\n(check-sat)\n(check-sat-assuming (|a)b|))\n(get-model)\n")
	if len(pieces) != 2 || tail != "\n(get-model)\n" {
		t.Fatalf("split into %q, tail %q", pieces, tail)
	}
	scripts, err := loadScripts()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scripts {
		if sc.name != "pushpop.smt2" {
			continue
		}
		if len(sc.pieces) != 2 {
			t.Fatalf("pushpop.smt2 cut into %d pieces, want 2", len(sc.pieces))
		}
		if err := sc.judge(0)(smtlib.StatusSat, map[string]smtlib.Value{"x": {Str: "OK"}}); !errors.Is(err, errWrong) {
			t.Fatalf("sat on the scoped contradiction: err = %v, want errWrong", err)
		}
		if err := sc.judge(1)(smtlib.StatusSat, map[string]smtlib.Value{"x": {Str: "OK"}}); err != nil {
			t.Fatalf("right final answer rejected: %v", err)
		}
		return
	}
	t.Fatal("pushpop.smt2 not loaded")
}
