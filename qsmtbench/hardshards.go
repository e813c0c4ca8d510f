package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qsmt"
	"qsmt/internal/obs"
	"qsmt/internal/portfolio"
	"qsmt/internal/remote"
)

// hard_shards_remote: the annealer service. One caller runs
// Solver.SolveBatch over batches of planted-solution QUBOs with the
// sampler `qsmt -remote URL -batch` builds (a portfolio-racing
// remote.Client), against an annealerd-equivalent remote.Server on a
// loopback listener in the same process.

const (
	batchSize       = 8
	batchesPerRound = 20
	hardWarmBatches = 5
	spanHeader      = "X-Qsmtbench-Span"
)

type hardShards struct {
	seed    int64
	batches [][]*planted
	solver  *qsmt.Solver // untraced rounds
	tsolver *qsmt.Solver // traced rounds, with a metrics registry
	metrics *qsmt.SolverMetrics
	client  *remote.Client
	srvMet  *remote.ServerMetrics
	httpSrv *http.Server
	served  chan struct{}
	transp  *http.Transport

	// tr is the tracer of the running round (nil when untraced); the
	// HTTP wrappers on both sides record spans into it.
	tr                                  atomic.Pointer[tracer]
	rttNS, serverNS, reqBytes, requests atomic.Int64
	retries0, traced                    int64
	// wins0 is the server's race count per winning arm when the first
	// traced round started; the server counts over its whole life.
	wins0 [portfolio.NumArmKinds]float64
}

func setupHardShards(seed int64) (instance, error) {
	h := &hardShards{seed: seed, served: make(chan struct{})}

	// The server carries the fields annealerd's buildHandler sets by
	// default that the synchronous /v1/sample path reads.
	reg := obs.NewRegistry()
	h.srvMet = remote.NewServerMetrics(reg)
	srv := &remote.Server{
		Description:   "qsmt simulated annealer",
		MaxReads:      remote.DefaultMaxReads,
		MaxSweeps:     remote.DefaultMaxSweeps,
		MaxConcurrent: 2 * runtime.GOMAXPROCS(0),
		SampleTimeout: 60 * time.Second,
		Metrics:       h.srvMet,
		Collector:     obs.NewCollector(reg),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h.httpSrv = &http.Server{
		Handler:      serverSpans{h: h, next: srv.Handler()},
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 2 * time.Minute,
	}
	go func() {
		defer close(h.served)
		if err := h.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "qsmtbench: server:", err)
		}
	}()

	h.transp = http.DefaultTransport.(*http.Transport).Clone()
	h.client = &remote.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Timeout: 60 * time.Second, Transport: clientSpans{h: h, base: h.transp}},
		Reads:      64,
		Sweeps:     1000,
		Seed:       seed,
		MaxRetries: remote.DefaultMaxRetries,
		Portfolio:  true,
	}
	h.metrics = newSolverMetrics()
	h.solver = qsmt.NewSolver(&qsmt.Options{Sampler: h.client, Seed: seed, MaxAttempts: 4})
	h.tsolver = qsmt.NewSolver(&qsmt.Options{Sampler: h.client, Seed: seed, MaxAttempts: 4, Metrics: h.metrics})
	h.batches = drawBatches(roundSeed(warmSeed, warmRound))
	for _, batch := range h.batches[:hardWarmBatches] {
		if _, err := h.call(batch, nil); err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

func (h *hardShards) prepare(r int) error {
	h.batches = drawBatches(roundSeed(h.seed, r))
	return nil
}

// drawBatches generates one round's batches of planted QUBOs.
func drawBatches(seed int64) [][]*planted {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]*planted, batchesPerRound)
	for b := range batches {
		batches[b] = make([]*planted, batchSize)
		for i := range batches[b] {
			batches[b][i] = newPlanted(rng)
		}
	}
	return batches
}

func (h *hardShards) round(tr *tracer) ([]callRec, error) {
	if tr != nil && h.traced == 0 {
		h.retries0 = h.client.Retries()
		h.wins0 = h.serverWins()
	}
	h.tr.Store(tr)
	defer h.tr.Store(nil)
	recs := make([]callRec, 0, len(h.batches))
	for _, batch := range h.batches {
		rec, err := h.call(batch, tr)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// call solves one batch and verifies every item against its planted
// energy.
func (h *hardShards) call(batch []*planted, tr *tracer) (callRec, error) {
	cs := make([]qsmt.Constraint, len(batch))
	for i, p := range batch {
		cs[i] = p
	}
	solver := h.solver
	if tr != nil {
		solver = h.tsolver
		h.traced += int64(len(batch))
	}
	rec := callRec{answers: len(batch)}
	end := tr.call("SolveBatch", "qsmt")
	start := time.Now()
	br, err := solver.SolveBatch(context.Background(), cs)
	rec.lat = time.Since(start)
	end()
	if err != nil {
		return rec, fmt.Errorf("SolveBatch: %w", err)
	}
	for i, it := range br.Items {
		switch {
		case it.Err == nil:
			if err := batch[i].verify(it.Result.Witness); err != nil {
				return rec, err
			}
			rec.decided++
			rec.ok++
		case errors.Is(it.Err, qsmt.ErrUnsatisfiable):
			return rec, wrong("planted %v: unsat", batch[i].blocks)
		case errors.Is(it.Err, qsmt.ErrNoModel):
			rec.ok++
		default:
			fmt.Fprintf(os.Stderr, "qsmtbench: planted %v: %v\n", batch[i].blocks, it.Err)
		}
	}
	return rec, nil
}

func (h *hardShards) probe(p *probes) error {
	queries := float64(h.traced)
	solverCounters(p, h.metrics, queries)
	// The server counts its races by winning arm; the descent arm is
	// advisory and wins only by proving the lower bound. Only the races
	// of the traced rounds count.
	var races, exact, descent float64
	wins := h.serverWins()
	for k := portfolio.ArmKind(0); k < portfolio.NumArmKinds; k++ {
		v := wins[k] - h.wins0[k]
		races += v
		switch k {
		case portfolio.ArmExact:
			exact += v
		case portfolio.ArmDescent:
			descent += v
		}
	}
	// solverCounters added the client-side races over queries.
	p.add("portfolio.races_per_query", races, 0)
	p.add("portfolio.win_exact_frac", exact, races)
	p.add("portfolio.win_anneal_frac", races-exact-descent, races)
	n := float64(h.requests.Load())
	p.add("remote.rtt_ms", float64(h.rttNS.Load())/1e6, n)
	p.add("remote.server_ms", float64(h.serverNS.Load())/1e6, n)
	p.add("remote.wire_ms", float64(h.rttNS.Load()-h.serverNS.Load())/1e6, n)
	p.add("remote.request_kb", float64(h.reqBytes.Load())/1024, n)
	p.add("remote.retries", float64(h.client.Retries()-h.retries0), 1)

	// Race the shards the server races, as it races them, to read the
	// portfolio's own outcome fields.
	for _, batch := range h.batches {
		for _, pl := range batch {
			shards, err := probeModel(p, pl)
			if err != nil {
				return err
			}
			for i, sh := range shards {
				if sh.Model.NumQuadratic() == 0 || sh.Model.N() <= qsmt.DefaultExactShardVars {
					continue
				}
				arms, _ := portfolio.BuildArms(portfolio.Config{
					Compiled: sh.Model.Compile(), Reads: 64, Sweeps: 1000,
					Seed: h.seed + int64(i), NoBackups: true,
				})
				o, err := portfolio.Race(context.Background(), arms)
				if err != nil {
					return err
				}
				p.add("portfolio.race_ms", ms(o.Elapsed), 1)
				p.add("portfolio.early_stop_frac", b2f(o.EarlyStopped), 1)
				p.add("portfolio.reads_saved_frac", float64(o.ReadsSaved)/64, 1)
			}
		}
	}
	return nil
}

// serverWins reads the server's race counter per winning arm.
func (h *hardShards) serverWins() [portfolio.NumArmKinds]float64 {
	var w [portfolio.NumArmKinds]float64
	for k := range w {
		w[k] = h.srvMet.PortfolioRaces.With(portfolio.KindName(portfolio.ArmKind(k))).Value()
	}
	return w
}

func (h *hardShards) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.httpSrv.Shutdown(ctx); err != nil {
		h.httpSrv.Close()
	}
	<-h.served
	h.transp.CloseIdleConnections()
}

// clientSpans times each request's round trip, from sending to the end
// of the response body, and tells the server which span it belongs to.
type clientSpans struct {
	h    *hardShards
	base http.RoundTripper
}

func (c clientSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := c.h.tr.Load()
	if tr == nil {
		return c.base.RoundTrip(req)
	}
	_, qid := tr.open()
	id, end := tr.child("rtt", "remote", 0, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", id, qid))
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	c.h.reqBytes.Add(req.ContentLength)
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() {
		end()
		c.h.rttNS.Add(time.Since(start).Nanoseconds())
		c.h.requests.Add(1)
	}}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	end  func()
	done atomic.Bool
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	if e.done.CompareAndSwap(false, true) {
		e.end()
	}
	return err
}

// serverSpans times each request on the server. The handler's time is
// attributed to the portfolio layer: the server races the portfolio
// arms inside it, which dominates its time.
type serverSpans struct {
	h    *hardShards
	next http.Handler
}

func (s serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.h.tr.Load()
	parent, qid, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if tr == nil || !ok {
		s.next.ServeHTTP(w, r)
		return
	}
	_, end := tr.child("server", "portfolio", parent, qid)
	start := time.Now()
	s.next.ServeHTTP(w, r)
	s.h.serverNS.Add(time.Since(start).Nanoseconds())
	end()
}

func parseSpanHeader(v string) (parent, qid int64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	parent, err1 := strconv.ParseInt(a, 10, 64)
	qid, err2 := strconv.ParseInt(b, 10, 64)
	return parent, qid, err1 == nil && err2 == nil
}
