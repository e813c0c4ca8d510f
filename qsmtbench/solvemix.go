package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"qsmt"
	"qsmt/internal/harness"
)

// solve_mix: the library front door. One caller drives a long-lived
// qsmt.NewSolver(&qsmt.Options{Seed: seed}) with library defaults through
// Solve and, for the five Table 1 pipelines, Run.

// A round holds one instance of every constructor at every length 3–10
// and the fixed instances once each, about a second of work on a 2-core
// machine. Every constructor weighs the same, as in the harness's family
// comparison (one instance per family); no traffic log gives other
// shares.

// mixWarmCalls is the warm-up length. Set-up runs it three times, so it
// is long enough (about 0.2 s) that setup_s is not dominated by
// millisecond-scale start-up jitter.
const mixWarmCalls = 64

// mixQuery is one call of the solve_mix list: a constraint, or (c nil)
// the Table 1 pipeline with index pipe.
type mixQuery struct {
	c     qsmt.Constraint
	pipe  int
	unsat bool // known unsat by construction
}

// table1 builds the paper's Table 1 pipelines around a generator hook
// (the traced rounds wrap the generator) and checks their outputs.
var table1 = []struct {
	gen   func() qsmt.Constraint
	build func(g qsmt.Constraint) *qsmt.Pipeline
	ok    func(out string) bool
}{
	{func() qsmt.Constraint { return qsmt.Reverse("hello") },
		func(g qsmt.Constraint) *qsmt.Pipeline { return qsmt.NewPipeline(g).Replace('e', 'a') },
		func(out string) bool { return out == "ollah" }},
	{func() qsmt.Constraint { return qsmt.Palindrome(6) },
		func(g qsmt.Constraint) *qsmt.Pipeline { return qsmt.NewPipeline(g) },
		func(out string) bool { return len(out) == 6 && out == reverse(out) }},
	{func() qsmt.Constraint { return qsmt.Regex("a[bc]+", 5) },
		func(g qsmt.Constraint) *qsmt.Pipeline { return qsmt.NewPipeline(g) },
		func(out string) bool { return len(out) == 5 && matchLitClassPlus("a[bc]+", out) }},
	{func() qsmt.Constraint { return qsmt.Concat("hello", " world") },
		func(g qsmt.Constraint) *qsmt.Pipeline { return qsmt.NewPipeline(g).ReplaceAll('l', 'x') },
		func(out string) bool { return out == "hexxo worxd" }},
	{func() qsmt.Constraint { return qsmt.IndexOf("hi", 2, 6) },
		func(g qsmt.Constraint) *qsmt.Pipeline { return qsmt.NewPipeline(g) },
		func(out string) bool { return len(out) == 6 && out[2:4] == "hi" }},
}

// mixQueries draws the solve_mix list from seed: every harness family,
// the affix/char/case/period/avoid constructors and three conjunction
// shapes (one unsat by construction) at lengths 3–10, two fixed unsat
// probes the solver answers unknown, and the Table 1 pipelines, in a
// seeded order.
func mixQueries(seed int64) []mixQuery {
	rng := rand.New(rand.NewSource(seed))
	gen := harness.NewWorkload(seed)
	word := func(n int) string { return gen.RandomWord(n) }
	letter := func() byte { return byte('a' + rng.Intn(26)) }
	var qs []mixQuery
	add := func(c qsmt.Constraint, unsat bool) { qs = append(qs, mixQuery{c: c, unsat: unsat}) }
	for n := 3; n <= 10; n++ {
		for _, k := range harness.AllKinds() {
			add(gen.Generate(k, n), false)
		}
		add(qsmt.PrefixOf(word(1+rng.Intn(n-1)), n), false)
		add(qsmt.SuffixOf(word(1+rng.Intn(n-1)), n), false)
		add(qsmt.CharAt(letter(), rng.Intn(n), n), false)
		add(qsmt.ToUpper(word(n)), false)
		add(qsmt.Periodic(1+rng.Intn(n-1), n), false)
		add(qsmt.AvoidChars([]byte{letter(), letter(), letter()}, n), false)
		a := word(1 + rng.Intn(n/2))
		b := word(1 + rng.Intn(n-len(a)))
		add(qsmt.And(qsmt.PrefixOf(a, n), qsmt.SuffixOf(b, n)), false)
		add(qsmt.And(qsmt.Palindrome(n), qsmt.CharAt(letter(), rng.Intn(n), n)), false)
		// Two prefixes that differ in their first character: unsat.
		p := word(1 + rng.Intn(n-1))
		first := 'a' + (p[0]-'a'+1+byte(rng.Intn(25)))%26
		q := string(first) + word(rng.Intn(n-1))
		add(qsmt.And(qsmt.PrefixOf(p, n), qsmt.PrefixOf(q, n)), true)
	}
	add(qsmt.And(qsmt.PrefixOf("ab", 4), qsmt.PrefixOf("cd", 4)), true)
	add(qsmt.And(qsmt.Palindrome(4), qsmt.PrefixOf("ab", 4), qsmt.SuffixOf("ab", 4)), true)
	for i := range table1 {
		qs = append(qs, mixQuery{pipe: i})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

type solveMix struct {
	seed    int64
	queries []mixQuery
	solver  *qsmt.Solver // untraced rounds
	tsolver *qsmt.Solver // traced rounds, with a metrics registry
	metrics *qsmt.SolverMetrics
	clock   phaseClock
	traced  int                  // calls made in traced rounds
	wits    map[int]qsmt.Witness // last verified witness per query
}

func setupSolveMix(seed int64) (instance, error) {
	m := newSolverMetrics()
	s := &solveMix{
		seed:    seed,
		queries: mixQueries(roundSeed(warmSeed, warmRound)),
		solver:  qsmt.NewSolver(&qsmt.Options{Seed: seed}),
		tsolver: qsmt.NewSolver(&qsmt.Options{Seed: seed, Metrics: m}),
		metrics: m,
		clock:   phaseClock{m: m},
		wits:    map[int]qsmt.Witness{},
	}
	// Warm up on the head of the list (answers are checked as usual).
	for i := 0; i < mixWarmCalls && i < len(s.queries); i++ {
		if _, err := s.call(i, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *solveMix) prepare(r int) error {
	s.queries = mixQueries(roundSeed(s.seed, r))
	s.wits = map[int]qsmt.Witness{}
	return nil
}

func (s *solveMix) round(tr *tracer) ([]callRec, error) {
	recs := make([]callRec, 0, len(s.queries))
	for i := range s.queries {
		rec, err := s.call(i, tr)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// call runs query i and checks its answer. A traced call runs on the
// traced solver with the constraint wrapped in core spans.
func (s *solveMix) call(i int, tr *tracer) (callRec, error) {
	q := s.queries[i]
	solver := s.solver
	built := &durationSum{}
	wrap := func(c qsmt.Constraint) qsmt.Constraint { return c }
	if tr != nil {
		solver = s.tsolver
		wrap = func(c qsmt.Constraint) qsmt.Constraint { return tracedConstraint{c, tr, built} }
		s.clock.mark()
		s.traced++
	}
	rec := callRec{answers: 1}
	if q.c == nil {
		tc := table1[q.pipe]
		pipe := tc.build(wrap(tc.gen()))
		end := tr.call("Run", "qsmt")
		start := time.Now()
		res, err := solver.Run(pipe)
		rec.lat = time.Since(start)
		end()
		s.clock.attribute(tr, time.Duration(built.d))
		switch {
		case err == nil:
			if !tc.ok(res.Output) {
				return rec, wrong("Table 1 row %d: output %q", q.pipe+1, res.Output)
			}
			rec.decided, rec.ok = 1, 1
		case errors.Is(err, qsmt.ErrNoModel):
			rec.ok = 1
		case errors.Is(err, qsmt.ErrUnsatisfiable):
			return rec, wrong("Table 1 row %d: unsat", q.pipe+1)
		default:
			fmt.Fprintf(os.Stderr, "qsmtbench: Table 1 row %d: %v\n", q.pipe+1, err)
		}
		return rec, nil
	}
	end := tr.call("Solve", "qsmt")
	start := time.Now()
	res, err := solver.Solve(wrap(q.c))
	rec.lat = time.Since(start)
	end()
	s.clock.attribute(tr, time.Duration(built.d))
	switch {
	case err == nil:
		if q.unsat {
			return rec, wrong("%s: sat on an unsat-by-construction input", describe(q.c))
		}
		if err := refCheck(q.c, res.Witness); err != nil {
			return rec, err
		}
		s.wits[i] = res.Witness
		rec.decided, rec.ok = 1, 1
	case errors.Is(err, qsmt.ErrUnsatisfiable):
		if !q.unsat {
			return rec, wrong("%s: unsat on a sat-by-construction input", describe(q.c))
		}
		rec.decided, rec.ok = 1, 1
	case errors.Is(err, qsmt.ErrNoModel):
		rec.ok = 1
	default:
		fmt.Fprintf(os.Stderr, "qsmtbench: %s: %v\n", describe(q.c), err)
	}
	return rec, nil
}

func (s *solveMix) probe(p *probes) error {
	for i, q := range s.queries {
		c := q.c
		if c == nil {
			c = table1[q.pipe].gen()
		}
		if _, err := probeModel(p, c); err != nil {
			return fmt.Errorf("%s: %w", c.Name(), err)
		}
		if w, ok := s.wits[i]; ok {
			var err error
			p.timeUS("core.check_us", func() { err = c.Check(w) })
			if err != nil {
				return wrong("%s: Check rejects a verified witness: %v", c.Name(), err)
			}
		}
	}
	solverCounters(p, s.metrics, float64(s.traced))
	return nil
}

func (s *solveMix) close() {}
