package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layers are the repository's modules the traced run attributes time to,
// in report order. The root span of each call belongs to the front door
// it entered (qsmt, or smtlib for scripts); the part of it no child
// covers is that layer's self time.
var layers = []string{"smtlib", "core", "qubo", "anneal", "portfolio", "remote", "qsmt"}

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one end-to-end call share QID; Parent 0 marks
// the call's root span. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	QID    int64  `json:"qid"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// phase is a duration the program itself measured inside a call
// (SolveStats phase timers, read back from the solver's metrics
// registry). It has a layer and a length but no position, so the
// attribution takes it out of the part of its call that no recorded
// span covers.
type phase struct {
	QID   int64  `json:"qid"`
	Layer string `json:"layer"`
	Dur   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced rounds run. One caller issues calls at
// a time (every workload is a closed loop with one caller), so the open
// root is process-wide; child spans may come from any goroutine.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	root   atomic.Int64 // ID of the open root span
	qid    atomic.Int64 // QID of the open root span

	mu     sync.Mutex
	spans  []span
	phases []phase
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// call opens the root span of one end-to-end call and returns the
// function that closes it.
func (t *tracer) call(name, layer string) func() {
	if t == nil {
		return func() {}
	}
	id := t.nextID.Add(1)
	t.root.Store(id)
	t.qid.Store(id)
	start := t.now()
	return func() {
		t.add(span{ID: id, QID: id, Name: name, Layer: layer, Start: start, End: t.now()})
		t.root.Store(0)
	}
}

// child opens a span under parent (0 selects the open root) within the
// open call; it returns the span's ID and the closing function.
func (t *tracer) child(name, layer string, parent, qid int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	if parent == 0 {
		parent, qid = t.root.Load(), t.qid.Load()
	}
	id := t.nextID.Add(1)
	start := t.now()
	return id, func() {
		t.add(span{ID: id, Parent: parent, QID: qid, Name: name, Layer: layer, Start: start, End: t.now()})
	}
}

// open reports the open root's span ID and QID (0, 0 outside a call).
func (t *tracer) open() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.root.Load(), t.qid.Load()
}

// phase attributes a program-measured duration to layer within the open
// call.
func (t *tracer) phase(layer string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, phase{QID: t.qid.Load(), Layer: layer, Dur: d.Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clampTolerance is the share of the traced wall-clock time that phase
// timers may exceed their calls' uncovered time by before the run fails.
const clampTolerance = 0.01

// attribution splits the traced wall-clock time into per-layer self
// time and the residue no call covers (the benchmark's own loop and
// answer checks).
type attribution struct {
	self    map[string]time.Duration
	residue time.Duration
	spans   int
	// clamped is the program-measured phase time that found no room in
	// the part of its call the spans leave uncovered, and clampedCalls
	// the calls where that happened. Phase timers and spans that time
	// the same work twice show up here rather than in the self times.
	clamped      time.Duration
	clampedCalls int
}

// attribute folds the recorded spans into per-layer self times. Within
// a root span every instant goes to the deepest spans open at that
// instant, split evenly when several run concurrently (a batch's
// parallel shards), so the per-layer totals of a call add up to its
// duration exactly. Instants no child covers belong to the root's layer,
// minus the program-measured phases of that call; phases longer than
// that uncovered time are scaled down to fit and the excess is reported
// as clamped. The totals plus the residue add up to wall by
// construction; what can go wrong is double counting, so a run whose
// clamped time exceeds clampTolerance of wall fails, as does one whose
// roots overlap.
func (t *tracer) attribute(wall time.Duration) (*attribution, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byQID := map[int64][]span{}
	roots := []span{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			byQID[s.QID] = append(byQID[s.QID], s)
		}
	}
	phases := map[int64][]phase{}
	for _, p := range t.phases {
		phases[p.QID] = append(phases[p.QID], p)
	}
	self := map[string]float64{}
	var covered, clamped float64
	clampedCalls := 0
	for _, root := range roots {
		uncovered := sweep(root, byQID[root.ID], self)
		var sum float64
		for _, p := range phases[root.ID] {
			sum += float64(p.Dur)
		}
		scale := 1.0
		if sum > uncovered {
			scale = uncovered / sum
			clamped += sum - uncovered
			clampedCalls++
		}
		for _, p := range phases[root.ID] {
			self[p.Layer] += float64(p.Dur) * scale
		}
		self[root.Layer] += uncovered - sum*scale
		covered += float64(root.End - root.Start)
	}
	residue := float64(wall.Nanoseconds()) - covered
	if residue < 0 {
		return nil, fmt.Errorf("trace: calls cover %.0fns of a %dns traced wall", covered, wall.Nanoseconds())
	}
	att := &attribution{
		self: map[string]time.Duration{}, residue: time.Duration(residue), spans: len(t.spans),
		clamped: time.Duration(clamped), clampedCalls: clampedCalls,
	}
	var total float64
	for l, v := range self {
		att.self[l] = time.Duration(v)
		total += v
	}
	if d := total + residue - float64(wall.Nanoseconds()); math.Abs(d) > 1e-6*float64(wall.Nanoseconds()) {
		return nil, fmt.Errorf("trace: layer self times plus residue miss the traced wall by %.0fns", d)
	}
	if clamped > clampTolerance*float64(wall.Nanoseconds()) {
		return nil, fmt.Errorf("trace: %d calls measure %.0fns of phases their spans leave no room for", clampedCalls, clamped)
	}
	return att, nil
}

// sweep attributes root's interval to the deepest open descendants at
// each instant, adding into self, and returns the time no descendant
// covers.
func sweep(root span, desc []span, self map[string]float64) float64 {
	clip := func(v int64) int64 {
		if v < root.Start {
			return root.Start
		}
		if v > root.End {
			return root.End
		}
		return v
	}
	points := []int64{root.Start, root.End}
	for i := range desc {
		desc[i].Start, desc[i].End = clip(desc[i].Start), clip(desc[i].End)
		points = append(points, desc[i].Start, desc[i].End)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	var uncovered float64
	for k := 0; k+1 < len(points); k++ {
		a, b := points[k], points[k+1]
		if b <= a {
			continue
		}
		active := map[int64]*span{}
		for i := range desc {
			if desc[i].Start <= a && desc[i].End >= b {
				active[desc[i].ID] = &desc[i]
			}
		}
		var leaves []*span
		for _, s := range active {
			if !hasActiveChild(s.ID, active) {
				leaves = append(leaves, s)
			}
		}
		dt := float64(b - a)
		if len(leaves) == 0 {
			uncovered += dt
			continue
		}
		for _, s := range leaves {
			self[s.Layer] += dt / float64(len(leaves))
		}
	}
	return uncovered
}

func hasActiveChild(id int64, active map[int64]*span) bool {
	for _, s := range active {
		if s.Parent == id {
			return true
		}
	}
	return false
}

// write stores the spans and phases as JSON lines under .qsmtbench/ in
// the working directory.
func (t *tracer) write(workload string, seed int64) error {
	dir := ".qsmtbench"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		err = enc.Encode(s)
	}
	for _, p := range t.phases {
		err = enc.Encode(p)
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
