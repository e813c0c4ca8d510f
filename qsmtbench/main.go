// Command qsmtbench is the end-to-end benchmark of the qsmt solver. It
// runs one of three fixed-work, closed-loop workloads against the
// unmodified library, checks every verdict against an answer the
// benchmark derives on its own, and prints one JSON result line.
//
//	qsmtbench --workload solve_mix --seed 1 --seconds 10 --trace 0
//
// The work of a run is fixed by --workload, --seed and --seconds: the
// seed generates one query list per round, every round of the same
// composition, and --seconds sets the number of rounds (about one
// second of work each on a 2-core machine), so the work mix never
// depends on how fast the program is. With --trace 0 the
// result carries the end-to-end metrics, medians over rounds; with
// --trace 1 it carries the per-layer metrics of a traced run (see
// METRICS.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart anchors setup_s to process start.
var processStart = time.Now()

// roundSeed derives the generator seed of round r.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// warmRound is the round index of the warm-up list. Warm-up draws from
// a fixed seed, so setup_s measures the same work for every seed.
const warmRound = -1

// warmSeed is the workload seed of the warm-up list.
const warmSeed = 0

// setupRepeats is how many times a run builds its inputs and system
// under test; setup_s is the median, which damps one-off page-fault and
// scheduling noise.
const setupRepeats = 5

// callRec is the outcome of one timed end-to-end call. answers counts
// the queries the call carried (1, or the batch size), decided those
// answered sat/unsat and verified, ok those answered without an
// operational error (unknown is an answer).
type callRec struct {
	lat                  time.Duration
	answers, decided, ok int
}

// instance is a workload's system under test plus its query lists.
type instance interface {
	// prepare draws the query list of round r from the workload seed.
	// Every round has the same composition (families, sizes, session
	// shapes); only the generated strings and models differ.
	prepare(r int) error
	// round runs the prepared list. A wrong verdict or an unverifiable
	// witness is returned as an error and fails the run.
	round(tr *tracer) ([]callRec, error)
	// probe times each layer's public calls on the workload's own
	// inputs and reads the counters the layers export.
	probe(p *probes) error
	close()
}

// workloads maps a workload name to its setup function.
var workloads = map[string]func(seed int64) (instance, error){
	"solve_mix":          setupSolveMix,
	"symexec_smtlib":     setupSymexec,
	"hard_shards_remote": setupHardShards,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: solve_mix, symexec_smtlib or hard_shards_remote")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "rounds to run (one round is about one second of work)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qsmtbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*name, setup, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsmtbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsmtbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, setup func(int64) (instance, error), seed int64, rounds int, traced bool) (*result, error) {
	fmt.Printf("# qsmtbench workload=%s seed=%d rounds=%d trace=%v GOMAXPROCS=%d nproc=%d go=%s\n",
		name, seed, rounds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var inst instance
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := processStart
		if inst != nil {
			// Each set-up starts from a collected heap, as each round does.
			inst.close()
			runtime.GC()
			start = time.Now()
		}
		next, err := setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = next
	}
	defer inst.close()

	if !traced {
		st, err := measure(inst, 0, rounds, nil)
		if err != nil {
			return nil, err
		}
		printHeader(st)
		return &result{
			Correct: true, Attempted: st.answers, Failed: st.answers - st.ok,
			Metrics: map[string]metric{
				"setup_s":            {median(setups), "s"},
				"latency_p50_ms":     {st.p50, "ms"},
				"latency_p90_ms":     {st.p90, "ms"},
				"throughput_qps":     {st.qps, "1/s"},
				"decided_frac":       {st.decidedFrac(), "fraction"},
				"ok_frac":            {st.okFrac(), "fraction"},
				"cpu_ms_per_query":   {st.cpuMs, "ms"},
				"alloc_kb_per_query": {st.allocKB, "KiB"},
				"peak_rss_mb":        {peakRSSMB(), "MiB"},
			},
		}, nil
	}

	// Traced run: half the rounds untraced, half traced, so the tracing
	// overhead is measured in the same process; then the layer probes.
	half := (rounds + 1) / 2
	plain, err := measure(inst, 0, half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	st, err := measure(inst, half, half, tr)
	if err != nil {
		return nil, err
	}
	printHeader(st)
	p := newProbes()
	if err := inst.probe(p); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	att, err := tr.attribute(st.wall)
	if err != nil {
		return nil, err
	}
	if err := tr.write(name, seed); err != nil {
		return nil, err
	}
	m := p.metrics()
	calls := float64(st.calls)
	for _, l := range layers {
		m[l+".self_ms"] = metric{ms(att.self[l]) / calls, "ms"}
	}
	m["trace.residue_ms"] = metric{ms(att.residue) / calls, "ms"}
	m["trace.e2e_ms"] = metric{ms(st.wall) / calls, "ms"}
	m["trace.spans_per_query"] = metric{float64(att.spans) / calls, "count"}
	m["trace.clamped_ms"] = metric{ms(att.clamped) / calls, "ms"}
	m["trace.clamped_frac"] = metric{float64(att.clampedCalls) / calls, "fraction"}
	m["trace.overhead_p50_ms"] = metric{st.p50 - plain.p50, "ms"}
	m["trace.overhead_p90_ms"] = metric{st.p90 - plain.p90, "ms"}
	return &result{Correct: true, Attempted: st.answers, Failed: st.answers - st.ok, Metrics: m}, nil
}

// runStats aggregates the measured rounds of one phase of a run.
type runStats struct {
	calls, answers, decided, ok int
	// Latency percentiles over every call of the phase; beyond50 and
	// beyond90 count the calls above each percentile's rank.
	p50, p90           float64
	beyond50, beyond90 int
	// Medians over rounds of the per-round figures.
	qps, cpuMs, allocKB float64
	wall                time.Duration
}

func (s *runStats) decidedFrac() float64 { return float64(s.decided) / float64(s.answers) }
func (s *runStats) okFrac() float64      { return float64(s.ok) / float64(s.answers) }

// measure runs rounds rounds, numbered from first. Latency percentiles
// pool every call; throughput, CPU and allocation per call are medians
// of the per-round figures, which damps a burst of outside load.
func measure(inst instance, first, rounds int, tr *tracer) (*runStats, error) {
	st := &runStats{}
	var lats, qpss, cpus, allocs []float64
	var mem runtime.MemStats
	for r := 0; r < rounds; r++ {
		if err := inst.prepare(first + r); err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&mem)
		alloc0 := mem.TotalAlloc
		cpu0 := cpuTime()
		start := time.Now()
		recs, err := inst.round(tr)
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&mem)
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, errors.New("round made no calls")
		}
		for _, c := range recs {
			lats = append(lats, ms(c.lat))
			st.answers += c.answers
			st.decided += c.decided
			st.ok += c.ok
		}
		n := float64(len(recs))
		qpss = append(qpss, n/wall.Seconds())
		cpus = append(cpus, ms(cpu)/n)
		allocs = append(allocs, float64(mem.TotalAlloc-alloc0)/1024/n)
		st.calls += len(recs)
		st.wall += wall
	}
	sort.Float64s(lats)
	var r50, r90 int
	st.p50, r50 = percentile(lats, 0.50)
	st.p90, r90 = percentile(lats, 0.90)
	st.beyond50, st.beyond90 = len(lats)-r50, len(lats)-r90
	st.qps, st.cpuMs, st.allocKB = median(qpss), median(cpus), median(allocs)
	return st, nil
}

func printHeader(st *runStats) {
	fmt.Printf("# calls=%d answers=%d decided=%d ok=%d beyond_p50=%d beyond_p90=%d\n",
		st.calls, st.answers, st.decided, st.ok, st.beyond50, st.beyond90)
}

// percentile returns the nearest-rank q-quantile of sorted values and
// its 1-based rank.
func percentile(sorted []float64, q float64) (float64, int) {
	rank := int(float64(len(sorted))*q + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], rank
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
