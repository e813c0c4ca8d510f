package qsmt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/portfolio"
	"qsmt/internal/qubo"
)

// This file is the attempt engine: the paper's encode → anneal → decode
// → check → retry loop, written once. Solve, SolveBatch, Optimize and
// IncrementalSession.Solve all run it; they differ only in three
// choices the engine crosses:
//
//   - plan: the whole model as one unit, or the connected components of
//     its variable-interaction graph (qubo.Components) as independent
//     units whose samples merge back into one assignment. An
//     incremental session's components are resolved against its memo
//     on every attempt instead of being fixed up front.
//   - tier, per unit: closed-form (coupler-free), exact enumeration
//     (small), a portfolio race, or the configured sampler, warm-started
//     when it supports it (shardUnit picks, sampleUnit runs).
//   - acceptor: the sat path takes the first candidate that decodes and
//     checks; the optimize path grades every verified candidate against
//     the incumbent.
//
// The decomposition is exact — no coupler crosses a component boundary
// — so merging per-unit minima yields a global minimum, and merged
// candidate energies are exact total energies. Enumerate keeps its own
// loop: it walks every sample rather than the k-th-best merge, skips
// presolve, and stops on an attempt that yields nothing fresh.

// tier is how one unit of a plan is solved each attempt.
type tier uint8

const (
	// tierClosedForm: a coupler-free shard; every variable minimizes its
	// own diagonal coefficient (solveLinearShard).
	tierClosedForm tier = iota
	// tierExact: a shard at or below ExactShardVars, enumerated
	// exhaustively.
	tierExact
	// tierRace: the portfolio arms race on the unit (Options.Portfolio).
	tierRace
	// tierSampler: the configured sampler.
	tierSampler
)

// unit is one independently solved piece of an attempt plan.
type unit struct {
	tier     tier
	model    *qubo.Model    // the shard model, which closed-form units solve directly
	compiled *qubo.Compiled // nil for closed-form units
	seeds    [][]qubo.Bit   // warm-start states; set only when the tier uses them
}

// attemptPlan is what the engine samples each attempt and how the
// samples merge back into candidates.
type attemptPlan struct {
	// layout places each unit's samples in the plan's n-variable space;
	// nil for the whole model, whose single unit's samples already are
	// candidates.
	layout []qubo.Shard
	units  []unit // one per layout entry; nil on incremental plans
	n      int    // width of a merged candidate
	// offset is the energy the units do not carry: the decomposed
	// model's offset, 0 for the whole model (its compiled form carries
	// its own).
	offset float64
	// red lifts plan-space candidates to the constraint's variable space;
	// nil when presolve is off or eliminated nothing.
	red *qubo.Reduction
	// racing names the portfolio as the attempt's sampler in SolveStats.
	racing bool

	// session, when set, resolves the layout's components against its
	// memo on every attempt; parent is the lineage's last witness, used
	// to warm-start the components it resamples.
	session *IncrementalSession
	parent  []qubo.Bit
}

// shards is the Result.Shards of a plan: 1 for the whole model.
func (p *attemptPlan) shards() int {
	if p.layout == nil {
		return 1
	}
	return len(p.layout)
}

// acceptFunc examines one lifted candidate of an attempt. done ends the
// solve: err is then a fatal verdict, or nil when the acceptor settled
// on a result. Otherwise err is the candidate's check failure, kept for
// ErrNoModel reporting (nil when it passed but did not settle the solve).
type acceptFunc func(x []qubo.Bit, energy float64, attempt int) (done bool, err error)

// runAttempts is the verify-retry loop: each attempt samples every unit
// of p, folds the attempt's sample statistics once, merges the k-th-best
// samples of every unit into the k-th candidate, lifts it through the
// presolve reduction and hands it to accept. It returns the last check
// failure when the attempt budget runs out, or err when the solve ended
// early on a cancelled context, a sampling failure or a fatal verdict.
func (s *Solver) runAttempts(ctx context.Context, name string, p *attemptPlan, accept acceptFunc, st *SolveStats) (lastCheck, err error) {
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qsmt: solving %s: %w", name, err)
		}
		st.Attempts = attempt + 1
		st.Sampler = "portfolio"
		if !p.racing {
			st.Sampler = samplerName(s.samplerFor(attempt))
		}
		var sets []*anneal.SampleSet
		if p.session != nil {
			sets, err = p.session.resolve(ctx, p, attempt, st)
		} else {
			sets, err = s.sampleUnits(ctx, p.units, attempt, st)
		}
		if err != nil {
			return nil, fmt.Errorf("qsmt: sampling %s: %w", name, err)
		}
		maxLen := foldSets(p.offset, sets, st)
		if maxLen <= 0 {
			// A (custom or remote) sampler returned a well-formed but
			// empty set: nothing can be merged this attempt. Record the
			// failure so exhausting the retry budget reports the cause
			// instead of a bare ErrNoModel.
			lastCheck = fmt.Errorf("qsmt: sampler returned an empty sample set for %s", name)
			continue
		}
		limit := min(s.opts.CandidatesPerAttempt, maxLen)
		phase := time.Now()
		for k := 0; k < limit; k++ {
			x, energy := p.candidate(sets, k)
			done, err := accept(liftBits(p.red, x), energy, attempt)
			if done {
				st.DecodeVerify += time.Since(phase)
				return nil, err
			}
			if err != nil {
				lastCheck = err
			}
		}
		st.DecodeVerify += time.Since(phase)
	}
	return lastCheck, nil
}

// noModel is the exhausted-budget verdict, naming the last check failure
// when there was one.
func noModel(lastCheck error) error {
	if lastCheck != nil {
		return fmt.Errorf("%w (last failure: %v)", ErrNoModel, lastCheck)
	}
	return ErrNoModel
}

// planModel builds the plan for a (possibly presolve-reduced) working
// model: its components when Options.Shard is set and the interaction
// graph splits, else the whole model as one unit. Compile time counts
// from start, less the presolve stage.
func (s *Solver) planModel(work *qubo.Model, red *qubo.Reduction, start time.Time, st *SolveStats) *attemptPlan {
	p := &attemptPlan{n: work.N(), red: red}
	defer func() { st.Compile = time.Since(start) - st.Presolve }()
	if s.opts.Shard {
		if shards := qubo.Components(work); len(shards) > 1 {
			st.Shards = len(shards)
			p.layout, p.offset, p.racing = shards, work.Offset(), s.portfolioShards()
			p.units = make([]unit, len(shards))
			for i, sh := range shards {
				var compiled *qubo.Compiled
				if sh.Model.NumQuadratic() > 0 {
					compiled = s.compileModel(sh.Model, st)
				}
				p.units[i] = s.shardUnit(sh.Model, compiled, st)
				if s.takesSeeds(p.units[i].tier) {
					p.units[i].seeds = s.warmSeeds(compiled)
				}
			}
			return p
		}
		st.ShardFallback = true
	}
	// The whole model is never solved closed-form or exactly: those tiers
	// are reserved for shards, so the default Solve anneals what the
	// paper anneals.
	u := unit{tier: tierSampler, compiled: s.compileModel(work, st)}
	if s.portfolioWholeModel() {
		u.tier = tierRace
	}
	if s.takesSeeds(u.tier) {
		u.seeds = s.warmSeeds(u.compiled)
	}
	p.units, p.racing = []unit{u}, u.tier == tierRace
	return p
}

// shardUnit picks the tier of one shard: coupler-free shards (compiled
// is nil) solve closed-form and small ones enumerate exactly — both
// counted as ExactShards — and the rest race the portfolio or go to the
// configured sampler.
func (s *Solver) shardUnit(m *qubo.Model, compiled *qubo.Compiled, st *SolveStats) unit {
	u := unit{model: m, compiled: compiled, tier: tierSampler}
	switch {
	case compiled == nil:
		u.tier = tierClosedForm
	case s.opts.ExactShardVars > 0 && compiled.N <= s.opts.ExactShardVars:
		u.tier = tierExact
	case s.portfolioShards():
		u.tier = tierRace
	}
	if u.tier <= tierExact {
		st.ExactShards++
	}
	return u
}

// takesSeeds reports whether a unit of tier t uses warm-start states: a
// race always offers them to its annealer arms; the sampler tier only
// when the sampler supports them.
func (s *Solver) takesSeeds(t tier) bool {
	return t == tierRace || t == tierSampler && supportsWarmStart(s.samplerFor(0))
}

// sampleUnit runs one unit's tier for an attempt. ordinal decorrelates
// per-unit closed-form tie-breaking and race seeds within the attempt.
func (s *Solver) sampleUnit(ctx context.Context, u *unit, attempt, ordinal int) (*anneal.SampleSet, *portfolio.Outcome, error) {
	switch u.tier {
	case tierClosedForm:
		return solveLinearShard(u.model, s.opts.Seed, attempt, ordinal), nil, nil
	case tierExact:
		ss, err := s.sample(ctx, &anneal.ExactSolver{MaxStates: s.opts.CandidatesPerAttempt}, u.compiled)
		return ss, nil, err
	case tierRace:
		o, err := s.racePortfolio(ctx, u.compiled, u.seeds, attempt, ordinal)
		if err != nil {
			return nil, nil, err
		}
		return o.Set, o, nil
	}
	sampler, _ := warmSampler(s.samplerFor(attempt), u.seeds)
	ss, err := s.sample(ctx, sampler, u.compiled)
	return ss, nil, err
}

// sampleUnits draws one sample set per unit for an attempt. Sampled and
// raced units of a decomposed plan run concurrently — each sampling call
// takes its own batch-gate slot, so shard fan-out from many batched
// constraints still respects the global worker bound — while closed-form
// and exact units, and a lone unit, run inline. Stats are folded after
// the join, in unit order, so the goroutines never write st.
func (s *Solver) sampleUnits(ctx context.Context, units []unit, attempt int, st *SolveStats) ([]*anneal.SampleSet, error) {
	phase := time.Now()
	defer func() { st.Sample += time.Since(phase) }()
	sets := make([]*anneal.SampleSet, len(units))
	outcomes := make([]*portfolio.Outcome, len(units))
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i := range units {
		if len(units) == 1 || units[i].tier <= tierExact {
			sets[i], outcomes[i], errs[i] = s.sampleUnit(ctx, &units[i], attempt, i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sets[i], outcomes[i], errs[i] = s.sampleUnit(ctx, &units[i], attempt, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if len(units) > 1 {
				err = fmt.Errorf("shard %d/%d: %w", i, len(units), err)
			}
			return nil, err
		}
	}
	for i := range units {
		st.observeUnit(&units[i], sets[i], outcomes[i])
	}
	return sets, nil
}

// foldSets folds one attempt's per-unit sample statistics into st and
// returns the deepest usable candidate rank. Energies are additive over
// units (plus the offset the units do not carry); ground fractions
// multiply because the units are sampled independently. maxLen is -1
// when any unit's set came back empty.
func foldSets(offset float64, sets []*anneal.SampleSet, st *SolveStats) (maxLen int) {
	best, mean, gf := offset, offset, 1.0
	for _, ss := range sets {
		st.Reads += ss.TotalReads()
		st.observeKernel(ss.Kernel)
		if ss.Len() == 0 {
			return -1
		}
		maxLen = max(maxLen, ss.Len())
		best += ss.Best().Energy
		mean += ss.MeanEnergy()
		gf *= ss.GroundFraction(0)
	}
	if maxLen > 0 {
		st.observeBest(best)
		st.MeanEnergy = mean
		st.GroundFraction = gf
	}
	return maxLen
}

// candidate merges the k-th best sample of every unit (clamped to each
// unit's sample count) into one plan-space assignment and its exact
// total energy; candidate 0 is the best the attempt found.
func (p *attemptPlan) candidate(sets []*anneal.SampleSet, k int) ([]qubo.Bit, float64) {
	energy := p.offset
	if p.layout == nil {
		smp := sets[0].Samples[k]
		return smp.X, energy + smp.Energy
	}
	x := make([]qubo.Bit, p.n)
	for i, ss := range sets {
		smp := ss.Samples[min(k, ss.Len()-1)]
		p.layout[i].Scatter(x, smp.X)
		energy += smp.Energy
	}
	return x, energy
}

// solvePlan runs the engine with the sat acceptor: the first candidate
// that decodes and checks is the model, and a provably unsatisfiable
// check ends the solve. accepted, when non-nil, sees the accepted
// assignment.
func (s *Solver) solvePlan(ctx context.Context, c Constraint, p *attemptPlan, vars int, start time.Time, st *SolveStats, accepted func([]qubo.Bit)) (*Result, error) {
	var res *Result
	lastCheck, err := s.runAttempts(ctx, c.Name(), p, func(x []qubo.Bit, energy float64, attempt int) (bool, error) {
		w, ok, fatal, checkErr := examineCandidate(c, x, st)
		if !ok {
			return fatal != nil, checkErr
		}
		if accepted != nil {
			accepted(x)
		}
		res = &Result{Witness: w, Energy: energy, Attempts: attempt + 1, Vars: vars, Shards: p.shards()}
		return true, nil
	}, st)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, noModel(lastCheck)
	}
	res.Elapsed = time.Since(start)
	res.Stats = *st
	return res, nil
}

// solveLinearShard solves a coupler-free shard closed-form: each
// variable independently minimizes its diagonal coefficient (1 when
// negative, 0 when positive). Zero-coefficient variables are free in
// the energy; they are filled from a deterministic splitmix64 stream
// keyed by (seed, attempt, shard) so retries explore the degenerate
// manifold instead of always returning the same corner.
func solveLinearShard(m *qubo.Model, seed int64, attempt, shard int) *anneal.SampleSet {
	x := make([]qubo.Bit, m.N())
	energy := 0.0
	state := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xbf58476d1ce4e5b9 ^ uint64(shard)
	for i := range x {
		v := m.Linear(i)
		switch {
		case v < 0:
			x[i] = 1
			energy += v
		case v == 0:
			x[i] = qubo.Bit(splitmix64(&state) & 1)
		}
	}
	return &anneal.SampleSet{Samples: []anneal.Sample{{X: x, Energy: energy, Occurrences: 1}}}
}

// splitmix64 advances the state and returns the next 64-bit draw
// (Steele et al.'s SplitMix64, the stream-seeding generator the
// annealing substrate also derives its streams from).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
