package main

import (
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. A metric a workload never exercises reads 0 (for example
// portfolio races outside hard_shards_remote).
var layerMetrics = []struct{ name, unit string }{
	{"anneal.sample_ms", "ms"},
	{"anneal.proposals_per_query", "count"},
	{"anneal.reads_per_query", "count"},
	{"anneal.ground_frac", "fraction"},
	{"anneal.exact_us", "us"},
	{"core.build_us", "us"},
	{"core.check_us", "us"},
	{"core.vars_per_query", "count"},
	{"qubo.presolve_us", "us"},
	{"qubo.presolve_eliminated_frac", "fraction"},
	{"qubo.components_us", "us"},
	{"qubo.compile_us", "us"},
	{"qubo.shards_per_query", "count"},
	{"qubo.exact_shard_frac", "fraction"},
	{"qubo.max_shard_vars", "count"},
	{"qubo.cache_hit_frac", "fraction"},
	{"qubo.cache_coalesced", "count"},
	{"smtlib.parse_us", "us"},
	{"smtlib.compile_us", "us"},
	{"smtlib.problems_per_check", "count"},
	{"smtlib.memo_hit_frac", "fraction"},
	{"portfolio.races_per_query", "count"},
	{"portfolio.race_ms", "ms"},
	{"portfolio.win_exact_frac", "fraction"},
	{"portfolio.win_anneal_frac", "fraction"},
	{"portfolio.early_stop_frac", "fraction"},
	{"portfolio.reads_saved_frac", "fraction"},
	{"remote.rtt_ms", "ms"},
	{"remote.server_ms", "ms"},
	{"remote.wire_ms", "ms"},
	{"remote.request_kb", "KiB"},
	{"remote.retries", "count"},
	{"qsmt.attempts_per_query", "count"},
	{"qsmt.candidates_per_query", "count"},
	{"qsmt.verify_fail_frac", "fraction"},
}

// probes accumulates per-layer figures as ratios: each metric is the sum
// of its numerators over the sum of its denominators, so timings become
// means per call and counts become rates per query.
type probes struct {
	num, den map[string]float64
	max      map[string]float64
}

func newProbes() *probes {
	return &probes{num: map[string]float64{}, den: map[string]float64{}, max: map[string]float64{}}
}

func (p *probes) add(name string, num, den float64) {
	p.num[name] += num
	p.den[name] += den
}

// timeUS times f and adds its duration in microseconds as one sample of
// name.
func (p *probes) timeUS(name string, f func()) {
	start := time.Now()
	f()
	p.add(name, float64(time.Since(start).Nanoseconds())/1e3, 1)
}

func (p *probes) observeMax(name string, v float64) {
	if v > p.max[name] {
		p.max[name] = v
	}
}

func (p *probes) metrics() map[string]metric {
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		v := p.max[lm.name]
		if d := p.den[lm.name]; d > 0 {
			v = p.num[lm.name] / d
		}
		m[lm.name] = metric{v, lm.unit}
	}
	return m
}

// probeModel times the qubo layer's public calls on one constraint's
// model the way the solver runs them (presolve, then components, then
// compile), and the exact enumerator on every shard the solver would
// enumerate. It returns the presolved model's shards.
func probeModel(p *probes, c qsmt.Constraint) ([]qubo.Shard, error) {
	var model *qubo.Model
	var err error
	p.timeUS("core.build_us", func() { model, err = c.BuildModel() })
	if err != nil {
		return nil, err
	}
	p.add("core.vars_per_query", float64(model.N()), 1)
	var red *qubo.Reduction
	p.timeUS("qubo.presolve_us", func() { red = qubo.Presolve(model) })
	p.add("qubo.presolve_eliminated_frac", float64(red.Eliminated()), float64(model.N()))
	var shards []qubo.Shard
	p.timeUS("qubo.components_us", func() { shards = qubo.Components(red.Model) })
	p.timeUS("qubo.compile_us", func() { red.Model.Compile() })
	p.add("qubo.shards_per_query", float64(len(shards)), 1)
	for _, sh := range shards {
		n := sh.Model.N()
		p.observeMax("qubo.max_shard_vars", float64(n))
		exact := sh.Model.NumQuadratic() == 0 || n <= qsmt.DefaultExactShardVars
		p.add("qubo.exact_shard_frac", b2f(exact), 1)
		if exact && sh.Model.NumQuadratic() > 0 {
			compiled := sh.Model.Compile()
			ex := &anneal.ExactSolver{MaxStates: 16}
			p.timeUS("anneal.exact_us", func() { _, err = ex.Sample(compiled) })
			if err != nil {
				return nil, err
			}
		}
	}
	return shards, nil
}

// solverCounters is the solver's metrics registry, read as per-query
// rates at the end of a traced run.
func solverCounters(p *probes, m *qsmt.SolverMetrics, queries float64) {
	p.add("anneal.sample_ms", m.SampleSeconds.Sum()*1e3, queries)
	p.add("anneal.proposals_per_query", m.KernelProposals.Value(), queries)
	p.add("anneal.reads_per_query", m.Reads.Value(), queries)
	p.add("anneal.ground_frac", m.GroundFraction.Sum(), float64(m.GroundFraction.Count()))
	p.add("qsmt.attempts_per_query", m.Attempts.Value(), queries)
	p.add("qsmt.candidates_per_query", m.Candidates.Value(), queries)
	p.add("qsmt.verify_fail_frac", m.VerifyFailures.Value(), m.Candidates.Value())
	p.add("portfolio.races_per_query", m.PortfolioRaces.Value(), queries)
}

// phaseClock snapshots the solver's phase-timer sums so the program's
// own timing of one call can be attributed to layers.
type phaseClock struct {
	m *qsmt.SolverMetrics
	// decodeToCore attributes the decode/verify phase to core; set it
	// when no core spans cover Decode and Check themselves.
	decodeToCore                            bool
	compile, presolve, sample, decode, race float64
}

func (pc *phaseClock) mark() {
	pc.decode = pc.m.DecodeSeconds.Sum()
	pc.compile = pc.m.CompileSeconds.Sum()
	pc.presolve = pc.m.PresolveSeconds.Sum()
	pc.sample = pc.m.SampleSeconds.Sum()
	pc.race = pc.m.PortfolioRaces.Value()
}

// attribute records the phases of the call since the last mark: presolve
// and compilation (less the model build the core spans already cover)
// to qubo, sampling to anneal, or to portfolio when the call raced.
func (pc *phaseClock) attribute(tr *tracer, built time.Duration) {
	if tr == nil {
		return
	}
	secs := func(v float64) time.Duration { return time.Duration(v * 1e9) }
	tr.phase("qubo", secs(pc.m.PresolveSeconds.Sum()-pc.presolve))
	tr.phase("qubo", secs(pc.m.CompileSeconds.Sum()-pc.compile)-built)
	layer := "anneal"
	if pc.m.PortfolioRaces.Value() > pc.race {
		layer = "portfolio"
	}
	tr.phase(layer, secs(pc.m.SampleSeconds.Sum()-pc.sample))
	if pc.decodeToCore {
		tr.phase("core", secs(pc.m.DecodeSeconds.Sum()-pc.decode))
	}
	pc.mark()
}

func newSolverMetrics() *qsmt.SolverMetrics { return qsmt.NewSolverMetrics(obs.NewRegistry()) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
