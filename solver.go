package qsmt

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/portfolio"
	"qsmt/internal/qubo"
)

// Sampler minimizes a compiled QUBO and returns an energy-sorted sample
// set. The samplers in this module (simulated annealing, parallel
// tempering, exact enumeration, greedy descent, uniform random) all
// satisfy it.
type Sampler interface {
	Sample(*qubo.Compiled) (*anneal.SampleSet, error)
}

// SamplerContext is the cancellation-aware sampler contract. All
// samplers in this module implement it in addition to Sampler; custom
// samplers may implement only Sampler — the solver adapts them (the
// context is then checked around, not inside, each sampling call).
type SamplerContext interface {
	SampleContext(ctx context.Context, c *qubo.Compiled) (*anneal.SampleSet, error)
}

// Toggle is a tri-state boolean option: the zero value selects the
// field's documented default, On forces the feature on, Off forces it
// off. It exists so features that are on by default (presolve, warm
// starts) can still be switched off through a zero-value-friendly
// Options literal.
type Toggle uint8

const (
	// DefaultToggle selects the field's documented default.
	DefaultToggle Toggle = iota
	// On forces the option on.
	On
	// Off forces the option off.
	Off
)

// enabled resolves the toggle against the field's default.
func (t Toggle) enabled(def bool) bool {
	switch t {
	case On:
		return true
	case Off:
		return false
	default:
		return def
	}
}

// Options configures a Solver. The zero value selects the defaults noted
// on each field.
type Options struct {
	// Sampler minimizes the QUBOs. Default: a SimulatedAnnealer with
	// 64 reads and 1000 sweeps — the neal-equivalent configuration the
	// paper evaluates on.
	Sampler Sampler
	// MaxAttempts bounds the verify-retry loop: after a failed
	// verification the solver re-anneals with a fresh seed. Default 4.
	MaxAttempts int
	// Seed is the root seed for default samplers and retry derivation.
	// Default 1.
	Seed int64
	// CandidatesPerAttempt bounds how many distinct low-energy samples
	// are decoded and checked per attempt before re-annealing.
	// Default 16.
	CandidatesPerAttempt int
	// Metrics, when non-nil, receives per-solve counters, phase timings
	// and sample-quality observations (see NewSolverMetrics). The same
	// numbers are always available per call via Result.Stats; Metrics
	// adds the registry-backed aggregate view.
	Metrics *SolverMetrics
	// Shard decomposes each model into the connected components of its
	// QUBO variable-interaction graph and solves the components as
	// independent shards, merging the shard assignments back into one
	// witness (see Solver.SolveBatch, which always shards). Coupler-free
	// shards are solved closed-form and small shards by exact
	// enumeration; the rest go to the sampler. Falls back to whole-model
	// solving when the graph is connected.
	Shard bool
	// BatchWorkers bounds concurrent sampling operations (shard or
	// whole-model) across a SolveBatch/EnumerateBatch call. Default
	// GOMAXPROCS; remote samplers (remote.Client, remote.Pool) tolerate
	// — and benefit from — values above the local core count, since the
	// fan-out then saturates the backend fleet instead of local CPUs.
	BatchWorkers int
	// CompileCache, when non-nil, fronts every Model.Compile with an LRU
	// keyed by the model's canonical fingerprint, so repeated
	// constraints (pipeline stages, recurring batch members, shards of
	// recurring conjunctions) skip compilation. See qubo.NewCache.
	CompileCache *qubo.Cache
	// ExactShardVars is the shard size (in binary variables) at or below
	// which a sharded solve enumerates the shard exhaustively instead of
	// sampling it — exact, deterministic, and far cheaper than annealer
	// reads at these sizes. Default 12; negative disables exact shard
	// solving. Values above anneal.MaxExactVars are clamped.
	ExactShardVars int
	// Presolve controls the QUBO presolve stage (qubo.Presolve) that runs
	// between model construction and compilation: persistency fixing,
	// pendant elimination and duplicate/complement merging shrink the
	// model the sampler sees, and reduced-model samples are lifted back to
	// full-model assignments exactly before decoding. On by default; Off
	// restores today's behavior bit for bit. Presolve never applies to
	// Enumerate, which needs the full degenerate ground manifold.
	Presolve Toggle
	// WarmStart controls warm-start seeding: when on (the default), each
	// sampling operation on a kernel sampler (simulated annealing,
	// parallel tempering, tabu) offers greedy-descent and
	// baseline-propagation states (anneal.GreedySeeds) as initial states,
	// so a fraction of reads polishes structured starts instead of
	// cooling from random ones. Samplers without warm-start support
	// (remote clients, custom samplers) are used unchanged. Off restores
	// today's behavior bit for bit. Never applies to Enumerate.
	WarmStart Toggle
	// Portfolio controls the per-shard portfolio scheduler
	// (internal/portfolio): each sampled shard races exact enumeration,
	// adaptive packed annealing (warm and cold), greedy descent and
	// staggered backup arms under one context, and the first decisive
	// finisher cancels the rest. On by default for multi-shard solves
	// (the sharded sat, optimize and incremental paths); On additionally
	// forces racing on whole-model solves. Only applies when no custom
	// Sampler is set — remote clients and test samplers keep the
	// sequential path (the remote job path has its own server-side
	// portfolio flag). Racing preserves verdicts but trades run-to-run
	// witness determinism for latency: the winning arm depends on
	// scheduling, so Off restores the fully deterministic sequential
	// tier path.
	Portfolio Toggle
}

// warmSeedCount is how many warm-start states the solver derives per
// compiled model; greedy descents are a few O(N+M) passes each, far
// below one annealing read.
const warmSeedCount = 4

// Solver runs the full SMT loop over QUBO-encoded string constraints:
// encode, sample, decode, check, retry. A Solver is safe for concurrent
// use when its Sampler is.
type Solver struct {
	opts Options
	// gate, when non-nil, bounds concurrent sampling operations; the
	// batch layer installs it on a per-batch solver copy so a batch of
	// hundreds of constraints keeps at most BatchWorkers samplers in
	// flight.
	gate chan struct{}
}

// NewSolver returns a solver with the given options; nil selects all
// defaults.
func NewSolver(opts *Options) *Solver {
	s := &Solver{}
	if opts != nil {
		s.opts = *opts
	}
	if s.opts.MaxAttempts <= 0 {
		s.opts.MaxAttempts = 4
	}
	if s.opts.Seed == 0 {
		s.opts.Seed = 1
	}
	if s.opts.CandidatesPerAttempt <= 0 {
		s.opts.CandidatesPerAttempt = 16
	}
	if s.opts.ExactShardVars == 0 {
		s.opts.ExactShardVars = DefaultExactShardVars
	}
	if s.opts.ExactShardVars > anneal.MaxExactVars {
		s.opts.ExactShardVars = anneal.MaxExactVars
	}
	return s
}

// DefaultExactShardVars is the default Options.ExactShardVars: 2^12
// states enumerate in microseconds, far below the cost of one sampler
// invocation.
const DefaultExactShardVars = 12

// compileModel compiles through the configured cache (straight through
// when none is set) and tracks cache hits in the solve stats.
func (s *Solver) compileModel(m *qubo.Model, st *SolveStats) *qubo.Compiled {
	if s.opts.CompileCache == nil {
		return m.Compile()
	}
	compiled, hit := s.opts.CompileCache.Compile(m)
	if hit {
		st.CacheHits++
	}
	return compiled
}

// syncCacheMetrics mirrors the compile-cache counters into the registry
// after a solve that could have touched the cache.
func (s *Solver) syncCacheMetrics() {
	if s.opts.CompileCache != nil && s.opts.Metrics != nil {
		s.opts.Metrics.syncCache(s.opts.CompileCache.Stats())
	}
}

// Result reports a successful solve.
type Result struct {
	Witness  Witness       // the checked model, in string-theory terms
	Energy   float64       // QUBO energy of the accepted sample
	Attempts int           // sampler invocations used (1 = first try)
	Vars     int           // QUBO size (binary variables)
	Shards   int           // independent shards solved (1 = whole model)
	Elapsed  time.Duration // wall-clock time across all attempts
	Stats    SolveStats    // phase timings and sample-quality detail

	// Optimize-mode fields (zero on plain Solve results). Objective is
	// the weighted theory objective Σ wᵢ·valueᵢ of the returned witness;
	// ObjectiveValues holds the per-soft-constraint theory values in
	// submission order (an Objective's graded value, or 0/1 violation for
	// a plain soft constraint). ObjectiveBound is the proven lower bound;
	// ObjectiveOptimal reports that the incumbent reached it, i.e. the
	// result is proved optimal rather than best-found-feasible.
	Objective        float64
	ObjectiveValues  []float64
	ObjectiveBound   float64
	ObjectiveOptimal bool
}

// ErrNoModel reports that the solver exhausted its verify-retry budget
// without finding a checked model. Because a QUBO sampler always returns
// *some* bitstring, this is the solver's (incomplete) analogue of unsat:
// either the constraint truly has no model, or the annealer failed to
// reach one.
var ErrNoModel = errors.New("qsmt: no verified model found")

// Solve runs the SMT loop on one constraint.
func (s *Solver) Solve(c Constraint) (*Result, error) {
	return s.SolveContext(context.Background(), c)
}

// SolveContext runs the SMT loop on one constraint under ctx. The
// context is threaded into every sampling call: context-aware samplers
// (all module samplers and the remote client) abort mid-run, so a
// deadline bounds the whole solve including retries.
func (s *Solver) SolveContext(ctx context.Context, c Constraint) (*Result, error) {
	var st SolveStats
	res, err := s.solveContext(ctx, c, &st)
	s.opts.Metrics.record(&st, err)
	s.syncCacheMetrics()
	return res, err
}

// examineCandidate decodes and checks one assignment, updating the
// candidate counters in st. ok reports a verified witness; a non-nil
// fatal means the constraint is provably unsatisfiable and retrying is
// pointless; otherwise checkErr carries the failure for error reporting.
func examineCandidate(c Constraint, x []qubo.Bit, st *SolveStats) (w Witness, ok bool, fatal, checkErr error) {
	st.Candidates++
	w, err := c.Decode(x)
	if err != nil {
		st.PenaltyViolations++
		return Witness{}, false, nil, err
	}
	if err := c.Check(w); err != nil {
		st.VerifyFailures++
		// A provably unsatisfiable constraint cannot be fixed by
		// re-annealing.
		if errors.Is(err, ErrUnsatisfiable) {
			return Witness{}, false, err, err
		}
		return Witness{}, false, nil, err
	}
	return w, true, nil, nil
}

// presolve runs the QUBO presolve stage on model when enabled, recording
// stage stats. It returns the model the sampler should see and the
// reduction to lift samples back through (nil when presolve is off or
// eliminated nothing, so downstream behavior — compile-cache keys
// included — is bit-identical to a presolve-free solve).
func (s *Solver) presolve(model *qubo.Model, st *SolveStats) (*qubo.Model, *qubo.Reduction) {
	return s.presolveProtected(model, nil, st)
}

// presolveProtected is presolve with a protection mask: the optimize
// path passes the set of variables carrying objective mass so fixing
// and folding only fire on variables the objective does not grade (see
// qubo.PresolveProtected).
func (s *Solver) presolveProtected(model *qubo.Model, protected []bool, st *SolveStats) (*qubo.Model, *qubo.Reduction) {
	if !s.opts.Presolve.enabled(true) {
		return model, nil
	}
	phase := time.Now()
	r := qubo.PresolveProtected(model, protected)
	st.Presolve += time.Since(phase)
	st.PresolveRounds += r.Stats.Rounds
	st.PresolveEliminated += r.Eliminated()
	st.PresolveRatio = r.Ratio()
	if !r.Reduced() {
		return model, nil
	}
	return r.Model, r
}

// liftBits maps a (possibly reduced-space) assignment back to the full
// variable space; a nil reduction means the assignment already is full.
// Off-width assignments (a custom sampler ignoring the compiled model's
// size) are passed through unlifted so Decode reports the mismatch
// instead of Lift panicking.
func liftBits(red *qubo.Reduction, x []qubo.Bit) []qubo.Bit {
	if red == nil || len(x) != red.Model.N() {
		return x
	}
	return red.Lift(x)
}

// warmSeeds derives warm-start states for a compiled model when warm
// starts are enabled: greedy descents from the all-zeros corner, the
// baseline-propagation state and a few random starts (anneal.GreedySeeds).
func (s *Solver) warmSeeds(compiled *qubo.Compiled) [][]qubo.Bit {
	if !s.opts.WarmStart.enabled(true) || compiled.N == 0 {
		return nil
	}
	return anneal.GreedySeeds(compiled, warmSeedCount, s.opts.Seed)
}

// supportsWarmStart reports whether the solver can install warm-start
// states on sampler: it must be one of the kernel samplers (simulated
// annealing, parallel tempering, tabu) without user-set initial states.
// Remote clients, custom implementations, and the exact and reverse
// annealers are used unchanged.
func supportsWarmStart(sampler Sampler) bool {
	switch sa := sampler.(type) {
	case *anneal.SimulatedAnnealer:
		return sa.InitialStates == nil
	case *anneal.ParallelTempering:
		return sa.InitialStates == nil
	case *anneal.TabuSampler:
		return sa.InitialStates == nil
	}
	return false
}

// warmSampler installs warm-start states on a copy of sampler when
// supportsWarmStart allows it; otherwise the sampler is returned
// unchanged with seeded=false.
func warmSampler(sampler Sampler, seeds [][]qubo.Bit) (_ Sampler, seeded bool) {
	if len(seeds) == 0 || !supportsWarmStart(sampler) {
		return sampler, false
	}
	switch sa := sampler.(type) {
	case *anneal.SimulatedAnnealer:
		cp := *sa
		cp.InitialStates = seeds
		return &cp, true
	case *anneal.ParallelTempering:
		cp := *sa
		cp.InitialStates = seeds
		return &cp, true
	case *anneal.TabuSampler:
		cp := *sa
		cp.InitialStates = seeds
		return &cp, true
	}
	return sampler, false
}

// portfolioShards reports whether sharded sampling should race the
// portfolio arms: on by default (Options.Portfolio is a tri-state whose
// default is on for multi-shard solves), and only when the solver runs
// the default annealer — a custom Sampler (remote client, test double)
// keeps the sequential path.
func (s *Solver) portfolioShards() bool {
	return s.opts.Portfolio.enabled(true) && s.opts.Sampler == nil
}

// portfolioWholeModel reports whether whole-model sampling should race:
// only when Portfolio is forced On (the default races shards only,
// where decomposition already proved independent subproblems).
func (s *Solver) portfolioWholeModel() bool {
	return s.opts.Portfolio == On && s.opts.Sampler == nil
}

// portfolioShardStride decorrelates per-shard race seeds within one
// attempt (the attempt stride is the solver's usual 1_000_003).
const portfolioShardStride = 7_368_787

// racePortfolio runs one portfolio race on a compiled model. The race
// counts as one sampling operation against the batch gate: its arms run
// concurrently inside the slot, and losers are cancelled as soon as the
// race settles, so a healthy race's CPU cost stays near one arm's.
func (s *Solver) racePortfolio(ctx context.Context, compiled *qubo.Compiled, seeds [][]qubo.Bit, attempt, shard int) (*portfolio.Outcome, error) {
	if s.gate != nil {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	arms, _ := portfolio.BuildArms(portfolio.Config{
		Compiled:   compiled,
		Reads:      64,
		Sweeps:     1000,
		Seed:       s.opts.Seed + int64(attempt)*1_000_003 + int64(shard)*portfolioShardStride,
		Seeds:      seeds,
		Candidates: s.opts.CandidatesPerAttempt,
	})
	return portfolio.Race(ctx, arms)
}

func (s *Solver) solveContext(ctx context.Context, c Constraint, st *SolveStats) (*Result, error) {
	start := time.Now()
	model, err := c.BuildModel()
	if err != nil {
		return nil, err
	}
	// Presolve before sharding: fixing and folding delete couplers, so a
	// connected interaction graph can fall apart into components that the
	// shard planner then solves closed-form or exactly.
	work, red := s.presolve(model, st)
	return s.solvePlan(ctx, c, s.planModel(work, red, start, st), model.N(), start, st, nil)
}

// SolveString solves a string-witness constraint and returns the string.
func (s *Solver) SolveString(c Constraint) (string, error) {
	res, err := s.Solve(c)
	if err != nil {
		return "", err
	}
	if res.Witness.Kind != WitnessString {
		return "", fmt.Errorf("qsmt: %s produced a non-string witness", c.Name())
	}
	return res.Witness.Str, nil
}

// SolveIndex solves an index-witness constraint (Includes) and returns
// the index.
func (s *Solver) SolveIndex(c Constraint) (int, error) {
	res, err := s.Solve(c)
	if err != nil {
		return -1, err
	}
	if res.Witness.Kind != WitnessIndex {
		return -1, fmt.Errorf("qsmt: %s produced a non-index witness", c.Name())
	}
	return res.Witness.Index, nil
}

// Enumerate collects up to k distinct verified witnesses for a
// constraint by decoding and checking every sample of successive
// annealing attempts (fresh seed per attempt). It exploits the
// degenerate ground manifolds of generative constraints — palindromes,
// regexes, pinned substrings — where many distinct strings satisfy the
// same QUBO; it is the API behind corpus generation for testing
// workloads. Fewer than k witnesses may be returned when the manifold
// (or the attempt budget) is smaller; at least one witness or an error
// is guaranteed.
func (s *Solver) Enumerate(c Constraint, k int) ([]Witness, error) {
	return s.EnumerateContext(context.Background(), c, k)
}

// EnumerateContext is Enumerate under a context; see SolveContext for
// the cancellation contract. Each enumeration records into
// Options.Metrics as one solve (success when it yields any witness).
func (s *Solver) EnumerateContext(ctx context.Context, c Constraint, k int) ([]Witness, error) {
	var st SolveStats
	out, err := s.enumerateContext(ctx, c, k, &st)
	s.opts.Metrics.record(&st, err)
	s.syncCacheMetrics()
	return out, err
}

// witnessKey renders a witness as a dedup map key, tagged by kind: the
// string witness "#3" and the index witness 3 are distinct witnesses
// and must not collide.
func witnessKey(w Witness) string {
	if w.Kind == WitnessIndex {
		return fmt.Sprintf("i:%d", w.Index)
	}
	return "s:" + w.Str
}

func (s *Solver) enumerateContext(ctx context.Context, c Constraint, k int, st *SolveStats) ([]Witness, error) {
	if k <= 0 {
		k = 1
	}
	start := time.Now()
	model, err := c.BuildModel()
	if err != nil {
		return nil, err
	}
	compiled := s.compileModel(model, st)
	st.Compile = time.Since(start)
	seen := map[string]bool{}
	seenAssign := map[string]bool{}
	var out []Witness
	var lastCheck error
	// Scale attempts with the request: every attempt contributes an
	// independent read set.
	attempts := s.opts.MaxAttempts
	if attempts < k {
		attempts = k
	}
	for attempt := 0; attempt < attempts && len(out) < k; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qsmt: enumerating %s: %w", c.Name(), err)
		}
		sampler := s.samplerFor(attempt)
		st.Attempts = attempt + 1
		st.Sampler = samplerName(sampler)
		phase := time.Now()
		ss, err := s.sample(ctx, sampler, compiled)
		st.Sample += time.Since(phase)
		if err != nil {
			return nil, fmt.Errorf("qsmt: sampling %s: %w", c.Name(), err)
		}
		st.Reads += ss.TotalReads()
		st.observeKernel(ss.Kernel)
		if len(ss.Samples) > 0 {
			st.observeBest(ss.Best().Energy)
			st.MeanEnergy = ss.MeanEnergy()
			st.GroundFraction = ss.GroundFraction(0)
		}
		phase = time.Now()
		fresh := 0
		for _, sample := range ss.Samples {
			if ak := bitKey(sample.X); !seenAssign[ak] {
				seenAssign[ak] = true
				fresh++
			}
			if len(out) >= k {
				break
			}
			w, ok, fatal, checkErr := examineCandidate(c, sample.X, st)
			if fatal != nil {
				st.DecodeVerify += time.Since(phase)
				return nil, fatal
			}
			if !ok {
				lastCheck = checkErr
				continue
			}
			key := witnessKey(w)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, w)
		}
		st.DecodeVerify += time.Since(phase)
		// A deterministic sampler (fixed seed, exact solver) re-delivers
		// the identical sample set every attempt; once an attempt yields
		// nothing previously unseen, further attempts cannot either.
		if fresh == 0 {
			break
		}
	}
	if len(out) == 0 {
		return nil, noModel(lastCheck)
	}
	return out, nil
}

// sample runs one sampling call under ctx, using the sampler's native
// context support when present and the check-around adapter otherwise.
// When a batch gate is installed, the call first acquires a worker slot
// so a whole batch keeps at most BatchWorkers samplers in flight.
func (s *Solver) sample(ctx context.Context, sampler Sampler, compiled *qubo.Compiled) (*anneal.SampleSet, error) {
	if s.gate != nil {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if cs, ok := sampler.(SamplerContext); ok {
		return cs.SampleContext(ctx, compiled)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ss, err := sampler.Sample(compiled)
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return ss, nil
}

// bitKey renders an assignment as a dedup map key.
func bitKey(x []qubo.Bit) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = '0' + byte(v&1)
	}
	return string(b)
}

// samplerFor returns the sampler for a given retry attempt. User-supplied
// samplers are reused as-is (their own state decides variation across
// calls); the default annealer derives a fresh seed per attempt so
// retries explore different basins.
func (s *Solver) samplerFor(attempt int) Sampler {
	if s.opts.Sampler != nil {
		return s.opts.Sampler
	}
	return &anneal.SimulatedAnnealer{
		Reads:  64,
		Sweeps: 1000,
		Seed:   s.opts.Seed + int64(attempt)*1_000_003,
	}
}
