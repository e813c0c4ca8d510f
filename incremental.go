package qsmt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// This file is the incremental solve layer: the push/pop traffic of an
// SMT front end produces long chains of queries that differ from their
// parent by one or two assertions, so almost all of the compiled QUBO
// structure — and almost all of the sampling work — recurs verbatim
// between a check-sat and the next. An IncrementalSession exploits that
// at the component level: each query's model is decomposed into the
// connected components of its variable-interaction graph
// (qubo.Components), each component is identified by its canonical
// content fingerprint (qubo.FingerprintOf), and components whose
// fingerprints were already solved earlier in the session reuse the
// memoized sample set outright — no presolve, no compile, no sampler
// reads. Only the components an assertion delta actually touched are
// re-presolved and re-sampled, and those are warm-started from the
// parent frame's accepted witness (anneal.PolishSeed), so the child
// query's sampler starts in the basin the parent already found.

// incrementalMemoCap bounds the per-session component memo. DFS
// workloads pop and re-push the same branches, so eviction is FIFO over
// first insertion: a few thousand entries comfortably cover the live
// frontier of a deep branching search while bounding memory for
// long-running sessions.
const incrementalMemoCap = 4096

// componentEntry is one memoized component: the presolve reduction and
// compiled model (kept so a verify-retry re-samples without redoing the
// reduce/compile stages) and the component-space sample set, already
// lifted back through the reduction so Scatter can place it directly.
type componentEntry struct {
	red      *qubo.Reduction   // nil when presolve is off or eliminated nothing
	compiled *qubo.Compiled    // nil for coupler-free (closed-form) components
	set      *anneal.SampleSet // component-local assignments, energy-sorted
}

// IncrementalSession solves a sequence of related constraints, reusing
// solved QUBO components across queries and warm-starting touched
// components from the parent frame's witness. It is the engine behind
// the smtlib interpreter's incremental mode; it can also be driven
// directly for DFS-style symbolic execution loops.
//
// Keys name lineages, not constraints: two Solve calls with the same key
// are treated as parent and child frames of one search path, so the
// child seeds its sampler from the parent's accepted witness whenever
// the variable layout still matches. Distinct variables (or distinct
// search paths) should use distinct keys. The component memo is shared
// across all keys — component identity is content-addressed, so a
// component proven on one path is reusable on every other.
//
// A session is safe for concurrent use when the Solver's sampler is;
// memo and parent-witness state are guarded, and sampling runs outside
// the locks.
type IncrementalSession struct {
	s *Solver

	mu      sync.Mutex
	memo    map[qubo.Fingerprint]*componentEntry
	order   []qubo.Fingerprint // FIFO eviction order (first insertion)
	parents map[string][]qubo.Bit
}

// NewIncrementalSession returns an incremental session backed by s. The
// session borrows the solver's options (sampler, presolve, warm starts,
// compile cache, metrics); it does not copy them, so later option
// visibility follows the solver value the caller keeps.
func (s *Solver) NewIncrementalSession() *IncrementalSession {
	return &IncrementalSession{
		s:       s,
		memo:    make(map[qubo.Fingerprint]*componentEntry),
		parents: make(map[string][]qubo.Bit),
	}
}

// Reset drops all memoized components and parent witnesses, returning
// the session to its initial state without discarding the solver.
func (is *IncrementalSession) Reset() {
	is.mu.Lock()
	defer is.mu.Unlock()
	is.memo = make(map[qubo.Fingerprint]*componentEntry)
	is.order = is.order[:0]
	is.parents = make(map[string][]qubo.Bit)
}

// Solve runs the SMT loop on one constraint of the keyed lineage,
// reusing session state as described on IncrementalSession. Results,
// errors and their classification (ErrUnsatisfiable, ErrNoModel) are
// identical to Solver.SolveContext on the same constraint; only the
// work performed differs.
func (is *IncrementalSession) Solve(ctx context.Context, key string, c Constraint) (*Result, error) {
	var st SolveStats
	res, err := is.solve(ctx, key, c, &st)
	is.s.opts.Metrics.record(&st, err)
	is.s.syncCacheMetrics()
	return res, err
}

func (is *IncrementalSession) solve(ctx context.Context, key string, c Constraint, st *SolveStats) (*Result, error) {
	s := is.s
	start := time.Now()
	st.Incremental = true
	model, err := c.BuildModel()
	if err != nil {
		return nil, err
	}
	shards := qubo.Components(model)
	st.Shards = len(shards)

	// A variable-free model (e.g. an empty-string equality) has exactly
	// one assignment; decode and check it directly.
	if len(shards) == 0 {
		st.Attempts = 1
		w, ok, fatal, checkErr := examineCandidate(c, []qubo.Bit{}, st)
		if fatal != nil {
			return nil, fatal
		}
		if !ok {
			return nil, noModel(checkErr)
		}
		return &Result{Witness: w, Energy: model.Offset(), Attempts: 1, Elapsed: time.Since(start), Stats: *st}, nil
	}

	// Energies are additive over components plus the model's offset: the
	// component models carry zero offsets, and per-component presolve
	// moves energy into a reduction offset that the component's sample
	// energies then already include.
	p := &attemptPlan{
		layout:  shards,
		n:       model.N(),
		offset:  model.Offset(),
		racing:  s.portfolioShards(),
		session: is,
		parent:  is.parentFor(key, model.N()),
	}
	return s.solvePlan(ctx, c, p, model.N(), start, st, func(x []qubo.Bit) { is.setParent(key, x) })
}

// resolve draws one sample set per component of p for an attempt, in
// component order, so a component repeated within the model (palindrome
// mirror pairs) hits the memo entry its first copy just stored. Memo
// hits are free; misses — and every component on a retry attempt, since
// a retry means the memoized combination failed verification — are
// solved fresh, reusing the memoized presolve reduction and compiled
// model where available so a re-sample pays only for sampler reads.
// Fresh sample sets are lifted back to the component's full space before
// memoizing, so merge-time Scatter and later memo hits need no reduction
// bookkeeping.
func (is *IncrementalSession) resolve(ctx context.Context, p *attemptPlan, attempt int, st *SolveStats) ([]*anneal.SampleSet, error) {
	s := is.s
	sets := make([]*anneal.SampleSet, len(p.layout))
	for i, sh := range p.layout {
		fp := qubo.FingerprintOf(sh.Model)
		prev := is.lookup(fp)
		if attempt == 0 && prev != nil && prev.set.Len() > 0 {
			st.IncrementalHits++
			sets[i] = prev.set
			continue
		}
		e := &componentEntry{}
		if sh.Model.NumQuadratic() > 0 {
			if prev != nil && prev.compiled != nil {
				e.red, e.compiled = prev.red, prev.compiled
				st.IncrementalPresolveReuses++
			} else {
				work, red := s.presolve(sh.Model, st)
				phase := time.Now()
				e.red, e.compiled = red, s.compileModel(work, st)
				st.Compile += time.Since(phase)
			}
		}
		u := s.shardUnit(sh.Model, e.compiled, st)
		if s.takesSeeds(u.tier) {
			u.seeds = is.componentSeeds(e.compiled, e.red, sh, p.parent, st)
		}
		phase := time.Now()
		ss, o, err := s.sampleUnit(ctx, &u, attempt, i)
		st.Sample += time.Since(phase)
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, len(p.layout), err)
		}
		st.observeUnit(&u, ss, o)
		// The presolve identity keeps energies exact:
		// E_component(Lift(x)) = E_reduced(x), offsets included.
		if e.red != nil {
			lifted := make([]anneal.Sample, ss.Len())
			for k, smp := range ss.Samples {
				lifted[k] = smp
				lifted[k].X = e.red.Lift(smp.X)
			}
			ss = &anneal.SampleSet{Samples: lifted}
		}
		e.set = ss
		is.store(fp, e)
		sets[i] = ss
	}
	return sets, nil
}

// componentSeeds assembles warm-start states for a sampled component:
// the parent frame's witness — restricted to the component's variables
// and projected through its presolve reduction, then greedily polished
// (anneal.PolishSeed) — leads, followed by the solver's standard greedy
// seeds. Nil when warm starts are disabled.
func (is *IncrementalSession) componentSeeds(compiled *qubo.Compiled, red *qubo.Reduction, sh qubo.Shard, parent []qubo.Bit, st *SolveStats) [][]qubo.Bit {
	if !is.s.opts.WarmStart.enabled(true) {
		return nil
	}
	seeds := is.s.warmSeeds(compiled)
	if parent == nil {
		return seeds
	}
	local := make([]qubo.Bit, len(sh.Vars))
	for k, g := range sh.Vars {
		local[k] = parent[g]
	}
	if red != nil {
		local = red.Project(local)
	}
	if seed := anneal.PolishSeed(compiled, local, is.s.opts.Seed); seed != nil {
		st.IncrementalParentSeeds++
		seeds = append([][]qubo.Bit{seed}, seeds...)
	}
	return seeds
}

// lookup returns the memo entry for fp, or nil.
func (is *IncrementalSession) lookup(fp qubo.Fingerprint) *componentEntry {
	is.mu.Lock()
	defer is.mu.Unlock()
	return is.memo[fp]
}

// store memoizes a component entry, evicting the oldest first-inserted
// entries beyond the cap. Overwriting an existing fingerprint (a retry
// replacing its sample set) keeps the original insertion position.
func (is *IncrementalSession) store(fp qubo.Fingerprint, e *componentEntry) {
	is.mu.Lock()
	defer is.mu.Unlock()
	if _, ok := is.memo[fp]; ok {
		is.memo[fp] = e
		return
	}
	is.memo[fp] = e
	is.order = append(is.order, fp)
	for len(is.order) > incrementalMemoCap {
		delete(is.memo, is.order[0])
		is.order = is.order[1:]
	}
}

// parentFor returns the lineage's last accepted witness when its width
// still matches the current model, nil otherwise (an assertion delta
// that changes the variable layout simply forgoes parent seeding).
// The returned slice is shared and must be treated as read-only.
func (is *IncrementalSession) parentFor(key string, n int) []qubo.Bit {
	is.mu.Lock()
	defer is.mu.Unlock()
	p := is.parents[key]
	if len(p) != n {
		return nil
	}
	return p
}

// setParent records the lineage's accepted witness for child seeding.
func (is *IncrementalSession) setParent(key string, x []qubo.Bit) {
	cp := make([]qubo.Bit, len(x))
	copy(cp, x)
	is.mu.Lock()
	defer is.mu.Unlock()
	is.parents[key] = cp
}
