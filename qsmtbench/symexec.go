package main

import (
	"embed"
	"fmt"
	"math/rand"
	"os"
	"path"
	"sort"
	"strings"
	"time"

	"qsmt"
	"qsmt/internal/qubo"
	"qsmt/internal/smtlib"
)

// symexec_smtlib: the SMT-LIB front end as `qsmt -incremental` builds
// it (no explicit sampler, a default-capacity compile cache, incremental
// interpreter). One caller sends symbolic-execution DFS sessions, the
// checked-in SMT-LIB scripts and a few assert-soft/minimize scripts.

// The session shape follows the repository's own DFS experiment
// (harness.RunIncrementalDFS as its benchmark runs it): three levels of
// two-way branches. The traffic shares (scripts per session) are
// assumptions; METRICS.md lists them.
const (
	sessionsPerRound = 400
	scriptReps       = 4
	symWarmItems     = 120
	dfsDepth         = 3
	dfsBranch        = 2
)

//go:embed testdata/*.smt2
var scriptFS embed.FS

// posModel is the benchmark's own reference for one session variable:
// a fixed length, a set of allowed bytes per position (nil = any) and
// position groups that must hold equal bytes (palindrome mirrors).
type posModel struct {
	n       int
	allowed [][]byte
	parent  []int
}

func newPosModel(n int) *posModel {
	m := &posModel{n: n, allowed: make([][]byte, n), parent: make([]int, n)}
	for i := range m.parent {
		m.parent[i] = i
	}
	return m
}

func (m *posModel) find(i int) int {
	for m.parent[i] != i {
		i = m.parent[i]
	}
	return i
}

func (m *posModel) union(i, j int) { m.parent[m.find(i)] = m.find(j) }

// restrict narrows position i to set.
func (m *posModel) restrict(i int, set []byte) {
	if m.allowed[i] == nil {
		m.allowed[i] = append([]byte(nil), set...)
		return
	}
	var keep []byte
	for _, c := range m.allowed[i] {
		if strings.IndexByte(string(set), c) >= 0 {
			keep = append(keep, c)
		}
	}
	if keep == nil {
		keep = []byte{}
	}
	m.allowed[i] = keep
}

// groupSet is the intersection of the allowed sets over i's group (nil
// when unrestricted).
func (m *posModel) groupSet(i int) []byte {
	root := m.find(i)
	var set []byte
	restricted := false
	for j := 0; j < m.n; j++ {
		if m.find(j) != root || m.allowed[j] == nil {
			continue
		}
		if !restricted {
			set, restricted = append([]byte(nil), m.allowed[j]...), true
			continue
		}
		var keep []byte
		for _, c := range set {
			if strings.IndexByte(string(m.allowed[j]), c) >= 0 {
				keep = append(keep, c)
			}
		}
		set = keep
	}
	if restricted && set == nil {
		set = []byte{}
	}
	return set
}

func (m *posModel) sat() bool {
	for i := 0; i < m.n; i++ {
		if s := m.groupSet(i); s != nil && len(s) == 0 {
			return false
		}
	}
	return true
}

func (m *posModel) holds(s string) bool {
	if len(s) != m.n {
		return false
	}
	for i := 0; i < m.n; i++ {
		if m.allowed[i] != nil && strings.IndexByte(string(m.allowed[i]), s[i]) < 0 {
			return false
		}
		if s[i] != s[m.find(i)] {
			return false
		}
	}
	return true
}

func (m *posModel) clone() *posModel {
	c := &posModel{n: m.n, allowed: make([][]byte, m.n), parent: append([]int(nil), m.parent...)}
	for i, a := range m.allowed {
		if a != nil {
			c.allowed[i] = append([]byte{}, a...)
		}
	}
	return c
}

// step is one Execute of a session: its SMT-LIB text, whether it holds a
// check-sat (a timed call), and the reference model the check-sat's
// answer is judged by.
type step struct {
	src   string
	check bool
	model *posModel
	// asserts is the session's assertion text in scope at the
	// check-sat, for the layer probes.
	asserts string
}

// genSession draws one DFS session: a base path condition on x, then
// push/pin/check-sat/pop down dfsDepth levels with dfsBranch pins per
// node. A pin's position and letter are drawn independently of the path
// condition, as a program's branch constants are, so whether a branch
// is unsat follows from the base and the pins above it. Unsat branches
// are not explored further.
func genSession(rng *rand.Rand) []step {
	n := 6 + rng.Intn(7)
	letter := func() byte { return byte('a' + rng.Intn(26)) }
	word := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = letter()
		}
		return string(b)
	}
	m := newPosModel(n)
	var base strings.Builder
	fmt.Fprintf(&base, "(assert (= (str.len x) %d))\n", n)
	switch rng.Intn(4) {
	case 0: // palindrome
		base.WriteString("(assert (= x (str.rev x)))\n")
		for i := 0; i < n/2; i++ {
			m.union(i, n-1-i)
		}
	case 1: // regex l[xy]+
		l, a, b := letter(), letter(), letter()
		for b == a {
			b = letter()
		}
		fmt.Fprintf(&base, "(assert (str.in_re x (re.++ (str.to_re %q) (re.+ (re.union (str.to_re %q) (str.to_re %q))))))\n",
			string(l), string(a), string(b))
		m.restrict(0, []byte{l})
		for i := 1; i < n; i++ {
			m.restrict(i, []byte{a, b})
		}
	case 2: // prefix + suffix
		p, s := word(1+rng.Intn(3)), word(1+rng.Intn(3))
		fmt.Fprintf(&base, "(assert (str.prefixof %q x))\n(assert (str.suffixof %q x))\n", p, s)
		for i := 0; i < len(p); i++ {
			m.restrict(i, []byte{p[i]})
		}
		for i := 0; i < len(s); i++ {
			m.restrict(n-len(s)+i, []byte{s[i]})
		}
	case 3: // a substring at a fixed index
		w := word(2 + rng.Intn(2))
		at := rng.Intn(n - len(w) + 1)
		fmt.Fprintf(&base, "(assert (= (str.substr x %d %d) %q))\n", at, len(w), w)
		for i := 0; i < len(w); i++ {
			m.restrict(at+i, []byte{w[i]})
		}
	}
	steps := []step{{
		src:     "(set-logic QF_S)\n(declare-const x String)\n" + base.String() + "(check-sat)\n",
		check:   true,
		model:   m,
		asserts: base.String(),
	}}
	var dfs func(m *posModel, asserts string, depth int)
	dfs = func(m *posModel, asserts string, depth int) {
		if depth == dfsDepth {
			return
		}
		for b := 0; b < dfsBranch; b++ {
			i, c := rng.Intn(n), letter()
			child := m.clone()
			child.restrict(i, []byte{c})
			pin := fmt.Sprintf("(assert (= (str.at x %d) %q))\n", i, string(c))
			steps = append(steps, step{
				src:     "(push 1)\n" + pin + "(check-sat)\n",
				check:   true,
				model:   child,
				asserts: asserts + pin,
			})
			if child.sat() {
				dfs(child, asserts+pin, depth+1)
			}
			steps = append(steps, step{src: "(pop 1)\n"})
		}
	}
	dfs(m, base.String(), 0)
	return steps
}

// expect is the reference answer to one check-sat of a script: its
// status and, when sat, a check of the model.
type expect struct {
	status smtlib.Status
	model  func(v map[string]smtlib.Value) bool
}

func sat(model func(v map[string]smtlib.Value) bool) expect {
	return expect{status: smtlib.StatusSat, model: model}
}

var unsat = expect{status: smtlib.StatusUnsat}

// script is a checked-in or generated script cut after each check-sat,
// so that every verdict is judged: pieces[k] ends with the k-th
// check-sat, whose answer is expect[k]; tail holds what follows the
// last one.
type script struct {
	name   string
	pieces []string
	tail   string
	expect []expect
}

func newScript(name, src string, expect []expect) (script, error) {
	pieces, tail := splitChecks(src)
	if len(pieces) != len(expect) {
		return script{}, fmt.Errorf("script %s: %d check-sats, %d reference answers", name, len(pieces), len(expect))
	}
	return script{name: name, pieces: pieces, tail: tail, expect: expect}, nil
}

// splitChecks cuts an SMT-LIB script after every top-level check-sat and
// check-sat-assuming command, skipping comments, string literals and
// |quoted| symbols.
func splitChecks(src string) (pieces []string, tail string) {
	depth, from, head := 0, 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
			}
		case '|':
			for i++; i < len(src) && src[i] != '|'; i++ {
			}
		case '(':
			if depth == 0 {
				head = i + 1
			}
			depth++
		case ')':
			depth--
			if depth != 0 {
				continue
			}
			cmd := src[head:i]
			if k := strings.IndexAny(cmd, " \t\r\n()"); k >= 0 {
				cmd = cmd[:k]
			}
			if cmd == "check-sat" || cmd == "check-sat-assuming" {
				pieces = append(pieces, src[from:i+1])
				from = i + 1
			}
		}
	}
	return pieces, src[from:]
}

// scriptChecks are the reference answers for the checked-in scripts,
// keyed by file name, one per check-sat in script order.
var scriptChecks = map[string][]expect{
	"affixes_conjunction.smt2": {sat(func(v map[string]smtlib.Value) bool {
		x := v["x"].Str
		return len(x) == 6 && strings.HasPrefix(x, "ab") && strings.HasSuffix(x, "yz") && x[2] == 'm'
	})},
	"assuming.smt2": {
		sat(func(v map[string]smtlib.Value) bool { return v["x"].Str == "abyz" }),
		sat(func(v map[string]smtlib.Value) bool {
			x := v["x"].Str
			return len(x) == 4 && strings.HasPrefix(x, "ab")
		}),
	},
	"avoid_vowels.smt2": {sat(func(v map[string]smtlib.Value) bool {
		x := v["x"].Str
		return len(x) == 4 && !strings.ContainsAny(x, "aei")
	})},
	"define_fun.smt2": {sat(func(v map[string]smtlib.Value) bool { return v["x"].Str == "OLLEH" })},
	"includes.smt2": {sat(func(v map[string]smtlib.Value) bool {
		return v["i"].Int == strings.Index("hello world", "o w")
	})},
	"multivar.smt2": {sat(func(v map[string]smtlib.Value) bool {
		p := v["pal"].Str
		return v["greeting"].Str == "ollah" && len(p) == 4 && p == reverse(p) && v["pos"].Int == 6
	})},
	"pushpop.smt2":     {unsat, sat(func(v map[string]smtlib.Value) bool { return v["x"].Str == "OK" })},
	"regex_star.smt2":  {sat(func(v map[string]smtlib.Value) bool { return v["x"].Str == "abbc" })},
	"table1_row1.smt2": {sat(func(v map[string]smtlib.Value) bool { return v["x"].Str == "ollah" })},
	"table1_row2_palindrome.smt2": {sat(func(v map[string]smtlib.Value) bool {
		p := v["p"].Str
		return len(p) == 6 && p == reverse(p)
	})},
	"table1_row3_regex.smt2": {sat(func(v map[string]smtlib.Value) bool {
		w := v["w"].Str
		return len(w) == 5 && matchLitClassPlus("a[bc]+", w)
	})},
	"table1_row4_concat.smt2": {sat(func(v map[string]smtlib.Value) bool { return v["x"].Str == "hexxo worxd" })},
	"table1_row5_substr.smt2": {sat(func(v map[string]smtlib.Value) bool {
		x := v["x"].Str
		return len(x) == 6 && x[2:4] == "hi"
	})},
	"unsat_ground.smt2":    {unsat},
	"unsat_substring.smt2": {unsat},
}

// loadScripts reads the checked-in scripts. Each file's :status, the
// expected answer of its last check-sat, must agree with the reference.
func loadScripts() ([]script, error) {
	names, err := scriptFS.ReadDir("testdata")
	if err != nil {
		return nil, err
	}
	var out []script
	for _, e := range names {
		src, err := scriptFS.ReadFile(path.Join("testdata", e.Name()))
		if err != nil {
			return nil, err
		}
		expect, known := scriptChecks[e.Name()]
		if !known {
			return nil, fmt.Errorf("script %s has no reference answer", e.Name())
		}
		sc, err := newScript(e.Name(), string(src), expect)
		if err != nil {
			return nil, err
		}
		status := smtlib.StatusSat
		if strings.Contains(string(src), ":status unsat") {
			status = smtlib.StatusUnsat
		}
		if expect[len(expect)-1].status != status {
			return nil, fmt.Errorf("script %s: :status disagrees with the reference answer", e.Name())
		}
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// optScripts draws the assert-soft/minimize scripts of one round. Each
// ends with its only check-sat, so it is one piece.
func optScripts(rng *rand.Rand) []script {
	p := string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))})
	budget := 4 + rng.Intn(3)
	soft := string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))})
	return []script{
		{
			name: "minimize",
			pieces: []string{fmt.Sprintf("(declare-const x String)\n(assert (str.prefixof %q x))\n(assert (<= (str.len x) %d))\n(minimize (str.len x))\n(check-sat)\n",
				p, budget)},
			expect: []expect{sat(func(v map[string]smtlib.Value) bool {
				x := v["x"].Str
				return strings.HasPrefix(x, p) && len(x) <= budget
			})},
		},
		{
			name:   "assert-soft",
			pieces: []string{fmt.Sprintf("(declare-const x String)\n(assert (= (str.len x) 4))\n(assert-soft (str.prefixof %q x) :weight 2)\n(check-sat)\n", soft)},
			expect: []expect{sat(func(v map[string]smtlib.Value) bool { return len(v["x"].Str) == 4 })},
		},
	}
}

// symItem is one entry of the round list: a session or a script.
type symItem struct {
	session []step
	script  *script
}

type symexec struct {
	seed    int64
	scripts []script
	items   []symItem
	metrics *qsmt.SolverMetrics // traced rounds share one registry
	clock   phaseClock
	traced  int
}

func setupSymexec(seed int64) (instance, error) {
	scripts, err := loadScripts()
	if err != nil {
		return nil, err
	}
	m := newSolverMetrics()
	x := &symexec{seed: seed, scripts: scripts, metrics: m, clock: phaseClock{m: m, decodeToCore: true}}
	// Warm up on the head of the warm-up list.
	x.items = x.draw(roundSeed(warmSeed, warmRound))
	if _, err := x.run(x.items[:symWarmItems], nil); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *symexec) prepare(r int) error {
	x.items = x.draw(roundSeed(x.seed, r))
	return nil
}

// draw generates one round list: sessions and optimization scripts from
// seed, mixed with the checked-in scripts.
func (x *symexec) draw(seed int64) []symItem {
	rng := rand.New(rand.NewSource(seed))
	var items []symItem
	for i := 0; i < sessionsPerRound; i++ {
		items = append(items, symItem{session: genSession(rng)})
	}
	for k := 0; k < scriptReps; k++ {
		for i := range x.scripts {
			items = append(items, symItem{script: &x.scripts[i]})
		}
		for _, s := range optScripts(rng) {
			s := s
			items = append(items, symItem{script: &s})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// newSolver builds the solver `qsmt -incremental` builds: library
// defaults plus a default-capacity compile cache.
func (x *symexec) newSolver(metrics *qsmt.SolverMetrics) (*qsmt.Solver, *qubo.Cache) {
	cache := qubo.NewCache(qubo.DefaultCacheCapacity)
	return qsmt.NewSolver(&qsmt.Options{Seed: x.seed, MaxAttempts: 4, CompileCache: cache, Metrics: metrics}), cache
}

// round replays the list on a fresh solver, cache and interpreters, so
// every round sees the same memo and cache traffic.
func (x *symexec) round(tr *tracer) ([]callRec, error) { return x.run(x.items, tr) }

func (x *symexec) run(items []symItem, tr *tracer) ([]callRec, error) {
	var metrics *qsmt.SolverMetrics
	if tr != nil {
		metrics = x.metrics
	}
	solver, _ := x.newSolver(metrics)
	var recs []callRec
	for _, item := range items {
		it := smtlib.NewInterpreter(solver, nil)
		it.Incremental = true
		if sc := item.script; sc != nil {
			for k, piece := range sc.pieces {
				rec, err := x.call(it, piece, tr, sc.judge(k))
				if err != nil {
					return nil, err
				}
				recs = append(recs, rec)
			}
			if err := it.Execute(sc.tail); err != nil {
				return nil, fmt.Errorf("script %s: %w", sc.name, err)
			}
			continue
		}
		for _, s := range item.session {
			if !s.check {
				if err := it.Execute(s.src); err != nil {
					return nil, fmt.Errorf("symexec: %w", err)
				}
				continue
			}
			rec, err := x.call(it, s.src, tr, s.model.judge)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// call times one Execute holding a check-sat and judges its verdict. An
// Execute error is an operational failure: it counts against ok_frac.
func (x *symexec) call(it *smtlib.Interpreter, src string, tr *tracer, judge func(smtlib.Status, map[string]smtlib.Value) error) (callRec, error) {
	if tr != nil {
		x.clock.mark()
		x.traced++
	}
	rec := callRec{answers: 1}
	end := tr.call("Execute", "smtlib")
	start := time.Now()
	err := it.Execute(src)
	rec.lat = time.Since(start)
	end()
	x.clock.attribute(tr, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsmtbench: symexec:", err)
		return rec, nil
	}
	st, _ := it.Status()
	if err := judge(st, it.Model()); err != nil {
		return rec, err
	}
	rec.ok = 1
	if st != smtlib.StatusUnknown {
		rec.decided = 1
	}
	return rec, nil
}

// judge returns the check of the script's k-th check-sat.
func (s *script) judge(k int) func(smtlib.Status, map[string]smtlib.Value) error {
	e := s.expect[k]
	return func(st smtlib.Status, model map[string]smtlib.Value) error {
		switch {
		case st == smtlib.StatusUnknown:
			return nil
		case st != e.status:
			return wrong("script %s, check-sat %d: %v, expected %v", s.name, k+1, st, e.status)
		case st == smtlib.StatusSat && !e.model(model):
			return wrong("script %s, check-sat %d: model %v fails the reference check", s.name, k+1, model)
		}
		return nil
	}
}

func (m *posModel) judge(st smtlib.Status, model map[string]smtlib.Value) error {
	switch st {
	case smtlib.StatusSat:
		if x := model["x"].Str; !m.holds(x) {
			return wrong("session: sat model %q violates the path condition (truth sat=%v)", x, m.sat())
		}
	case smtlib.StatusUnsat:
		if m.sat() {
			return wrong("session: unsat on a satisfiable path condition")
		}
	}
	return nil
}

func (x *symexec) probe(p *probes) error {
	solverCounters(p, x.metrics, float64(x.traced))
	// Replay the sessions once on a fresh solver to read the memo and
	// cache counters of this traffic alone.
	m := newSolverMetrics()
	solver, cache := x.newSolver(m)
	problems := 0
	for _, item := range x.items {
		if item.session == nil {
			continue
		}
		it := smtlib.NewInterpreter(solver, nil)
		it.Incremental = true
		for _, s := range item.session {
			if err := it.Execute(s.src); err != nil {
				return err
			}
			if !s.check {
				continue
			}
			var err error
			p.timeUS("smtlib.parse_us", func() { _, err = smtlib.ParseScript(s.src) })
			if err != nil {
				return err
			}
			sc, err := smtlib.ParseScript("(declare-const x String)\n" + s.asserts)
			if err != nil {
				return err
			}
			var comp *smtlib.Compilation
			p.timeUS("smtlib.compile_us", func() { comp, err = smtlib.Compile(sc) })
			if err != nil {
				return err
			}
			p.add("smtlib.problems_per_check", float64(len(comp.Problems)), 1)
			problems += len(comp.Problems)
			for _, prob := range comp.Problems {
				c := prob.Single
				if prob.Pipeline != nil {
					c = prob.Pipeline.Generator()
				}
				if c == nil {
					continue
				}
				if _, err := probeModel(p, c); err != nil {
					return err
				}
			}
		}
	}
	p.add("smtlib.memo_hit_frac", float64(problems)-m.IncrementalSolves.Value(), float64(problems))
	cs := cache.Stats()
	p.add("qubo.cache_hit_frac", float64(cs.Hits), float64(cs.Hits+cs.Misses))
	p.add("qubo.cache_coalesced", float64(cs.Coalesced), 1)
	return nil
}

func (x *symexec) close() {}
