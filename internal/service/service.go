// Package service is the long-running analysis daemon behind cmd/ptrand:
// POST a source program to /v1/analyze and get the full paper pipeline back
// — static check diagnostics, the optimized counter plan, TIME/VAR
// estimates, and profile totals — in the same report.Document JSON dialect
// the command-line tools emit.
//
// The production posture lives here rather than in the command: a
// content-hash LRU of compiled artifacts (the per-process vmOnce/plansOnce
// caching generalized across requests, single-flighted per key), a bounded
// worker pool with queue shedding, per-request deadlines threaded as a
// context through core.Pipeline, and graceful shutdown that drains
// in-flight analyses before the listener goes away.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	artstore "repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/report"
)

// Config tunes the service; the zero value gets sensible defaults from New.
type Config struct {
	// Workers bounds concurrently running analyses (≤ 0: GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker slot; anything beyond is
	// shed with 503 + Retry-After (< 0: 0, i.e. shed when all busy).
	Queue int
	// CacheSize bounds the compiled-artifact LRU (≤ 0: 128 entries).
	CacheSize int
	// RequestTimeout bounds one request end to end — queue wait, compile,
	// profile, estimate (≤ 0: 30s). Cancellation granularity is one
	// pipeline phase or one profiled seed (see core.ProfileCtx).
	RequestTimeout time.Duration
	// MaxSourceBytes bounds the request body (≤ 0: 1 MiB).
	MaxSourceBytes int64
	// MaxSeeds bounds the per-request seed list (≤ 0: 256).
	MaxSeeds int
	// MaxSteps caps every profiled run's step budget; requests may lower
	// it but never raise it (≤ 0: the engine default, 500 million).
	MaxSteps int64
	// Metrics receives the service counters and gauges (nil: obs.Default).
	// Tests hand each Service a private registry for isolation.
	Metrics *obs.Registry
	// DiskCache, when non-nil, is the on-disk compiled-artifact store
	// every compile consults and writes back to (core.LoadOptions.Cache).
	// It is the in-memory LRU's persistent half: entries evicted from the
	// LRU — or lost to a daemon restart — recompile warm from disk instead
	// of cold, per procedure.
	DiskCache *artstore.Store
}

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Source is the program text (required).
	Source string `json:"source"`
	// Engine selects the execution substrate: tree|vm|vm-batch, or empty
	// for the server default (REPRO_ENGINE, then the bytecode VM).
	Engine string `json:"engine,omitempty"`
	// Plan selects counter placement: sarkar|ball-larus, or empty for the
	// server default (REPRO_PLAN, then Sarkar).
	Plan string `json:"plan,omitempty"`
	// Seeds are the profiling seeds (empty: seed 1).
	Seeds []uint64 `json:"seeds,omitempty"`
	// MaxSteps lowers the per-run step budget below the server cap.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// ProcReport is one procedure's slice of the analysis result.
type ProcReport struct {
	Name string `json:"name"`
	// Estimate carries the TIME(START)/VAR(START)/STD_DEV tuple under the
	// NaN-safe metrics encoding (keys "time", "var", "std_dev").
	Estimate report.Metrics `json:"estimate"`
	// Counters is the optimized counter placement, one string per counter.
	Counters []string `json:"counters,omitempty"`
	// Totals is the recovered TOTAL_FREQ profile keyed by condition.
	Totals report.Metrics `json:"totals,omitempty"`
}

// AnalyzeResponse is the POST /v1/analyze reply: the shared report document
// (diagnostics, severity tally, per-request phase spans) plus the
// service-level result.
type AnalyzeResponse struct {
	report.Document
	// Engine and Plan echo the resolved selections ("vm", "sarkar", ...).
	Engine string `json:"engine"`
	Plan   string `json:"plan"`
	// Seeds echoes the profiled seed list (empty on front-end failure).
	Seeds []uint64 `json:"seeds,omitempty"`
	// CacheHit reports whether the compiled artifact was reused.
	CacheHit bool `json:"cache_hit"`
	// Main names the PROGRAM unit whose Time is the whole-program
	// estimate; its ProcReport is in Procs.
	Main string `json:"main,omitempty"`
	// Procs are the per-procedure results, sorted by name.
	Procs []ProcReport `json:"procs,omitempty"`
}

// errorReply is the JSON body of every non-2xx response without a document.
type errorReply struct {
	Error string `json:"error"`
}

// latencyRingSize bounds the sliding window the p50/p99 gauges are computed
// over at scrape time.
const latencyRingSize = 2048

// Service is the analysis daemon. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Service struct {
	cfg   Config
	mux   *http.ServeMux
	cache *lruCache
	lim   *limiter
	reg   *obs.Registry

	// mu guards closed; wg counts in-flight requests so Shutdown can
	// drain them.
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// latency ring: the last latencyRingSize analyze durations in ms.
	latMu   sync.Mutex
	lat     [latencyRingSize]float64
	latNext int
	latLen  int
}

// New builds a Service from the config, applying defaults for zero fields.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 1 << 20
	}
	if cfg.MaxSeeds <= 0 {
		cfg.MaxSeeds = 256
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	s := &Service{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		cache: newLRUCache(cfg.CacheSize),
		lim:   newLimiter(cfg.Workers, cfg.Queue),
		reg:   cfg.Metrics,
	}
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops admitting requests and waits for in-flight analyses to
// drain, or for ctx to end, whichever comes first. New requests get 503
// the moment it is called.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits one request into the drain group; false means draining.
func (s *Service) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Service) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Point-in-time gauges are set at scrape so the registry never needs
	// per-request gauge churn.
	s.reg.SetGauge("service.inflight", float64(s.lim.running()))
	s.reg.SetGauge("service.queue_depth", float64(s.lim.depth()))
	s.reg.SetGauge("service.cache_entries", float64(s.cache.len()))
	p50, p99 := s.latencyQuantiles()
	s.reg.SetGauge("service.latency_p50_ms", p50)
	s.reg.SetGauge("service.latency_p99_ms", p99)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, s.reg); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.enter() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.wg.Done()
	s.reg.Add("service.requests_total", 1)
	t0 := time.Now()
	defer func() { s.observeLatency(float64(time.Since(t0)) / float64(time.Millisecond)) }()

	// Per-request trace: decode, queue wait, compile (zero-width on a warm
	// hit), profile, estimate. The compiled artifact is shared across
	// requests, so its pipeline carries no trace; the request measures
	// around it.
	tr := obs.NewTrace()

	sp := tr.Start("decode")
	var req AnalyzeRequest
	err := s.decodeRequest(w, r, &req)
	sp.End()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxSourceBytes))
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		s.writeError(w, http.StatusBadRequest, "source is required")
		return
	}
	eng, err := interp.ParseEngine(req.Engine)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	strat, err := core.ParseStrategy(req.Plan)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Seeds) > s.cfg.MaxSeeds {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("at most %d seeds per request", s.cfg.MaxSeeds))
		return
	}
	if req.MaxSteps < 0 {
		s.writeError(w, http.StatusBadRequest, "max_steps must be non-negative")
		return
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	steps := s.cfg.MaxSteps
	if req.MaxSteps > 0 && (steps == 0 || req.MaxSteps < steps) {
		steps = req.MaxSteps
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	sp = tr.Start("queue_wait")
	err = s.lim.acquire(ctx)
	sp.End()
	if err != nil {
		if errors.Is(err, errShed) {
			s.reg.Add("service.shed_total", 1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, "queue full, retry later")
			return
		}
		s.reg.Add("service.timeout_total", 1)
		s.writeError(w, http.StatusGatewayTimeout, "timed out waiting for a worker")
		return
	}
	defer s.lim.release()

	resolvedEng := interp.EffectiveEngine(eng)
	resolvedStrat := core.EffectiveStrategy(strat)
	key := cacheKey(req.Source, resolvedEng, resolvedStrat)
	art, hit := s.cache.get(key)
	if hit {
		s.reg.Add("service.cache_hits_total", 1)
	} else {
		s.reg.Add("service.cache_misses_total", 1)
	}
	sp = tr.Start("compile")
	art.compile(req.Source, resolvedEng, resolvedStrat, s.cfg.RequestTimeout, s.cfg.DiskCache)
	sp.End(obs.M("cold_ms", art.compileMs))
	if art.err != nil {
		if art.transient {
			// Do not poison the cache with a deadline-shaped failure: the
			// next request recompiles under its own budget.
			s.cache.drop(key, art)
			s.reg.Add("service.timeout_total", 1)
			s.writeError(w, http.StatusGatewayTimeout, art.err.Error())
			return
		}
		s.reg.Add("service.errors_total", 1)
		s.writeError(w, http.StatusInternalServerError, art.err.Error())
		return
	}
	if art.failed() {
		// Front-end findings: a well-formed 422 carrying the diagnostics
		// document, same dialect as ptranlint.
		resp := &AnalyzeResponse{
			Document: *report.NewDocument("ptrand", art.diags),
			Engine:   resolvedEng.String(),
			Plan:     resolvedStrat.String(),
			CacheHit: hit,
		}
		resp.Spans = tr.Spans()
		s.writeResponse(w, http.StatusUnprocessableEntity, resp, nil)
		return
	}
	pipe := art.pipe

	sp = tr.Start("profile")
	prof, _, err := pipe.ProfileCtx(ctx, interp.Options{MaxSteps: steps}, seeds...)
	sp.End(obs.M("seeds", float64(len(seeds))))
	if err != nil {
		if ctx.Err() != nil {
			s.reg.Add("service.timeout_total", 1)
			s.writeError(w, http.StatusGatewayTimeout, "profiling exceeded the request deadline")
			return
		}
		// A runtime error is the program's fault (an out-of-bounds
		// subscript, an oversized array, the step limit), not the
		// service's: the request was understood and cannot be processed.
		var rte *interp.RuntimeError
		if errors.As(err, &rte) {
			s.writeError(w, http.StatusUnprocessableEntity, "profile: "+err.Error())
			return
		}
		s.reg.Add("service.errors_total", 1)
		s.writeError(w, http.StatusInternalServerError, "profile: "+err.Error())
		return
	}
	sp = tr.Start("estimate")
	est, err := pipe.EstimateWithProfile(prof, cost.Optimized, core.Options{})
	sp.End()
	if err != nil {
		s.reg.Add("service.errors_total", 1)
		s.writeError(w, http.StatusInternalServerError, "estimate: "+err.Error())
		return
	}

	diags := append(append([]report.Diagnostic(nil), art.diags...), est.Diagnostics()...)

	resp := &AnalyzeResponse{
		Document: *report.NewDocument("ptrand", diags),
		Engine:   resolvedEng.String(),
		Plan:     resolvedStrat.String(),
		Seeds:    seeds,
		CacheHit: hit,
	}
	resp.Spans = tr.Spans()
	if est.Main != nil {
		resp.Main = est.Main.A.P.G.Name
	}
	procs := make([]procResult, len(art.procs))
	for i := range art.procs {
		t := &art.procs[i]
		procs[i] = procResult{text: t, est: est.Procs[t.name], totals: prof[t.name]}
	}
	s.writeResponse(w, http.StatusOK, resp, procs)
}

// decodeRequest reads the whole body, bounded by MaxSourceBytes, and
// decodes it into req.
func (s *Service) decodeRequest(w http.ResponseWriter, r *http.Request, req *AnalyzeRequest) error {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxSourceBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)); err != nil {
		return err
	}
	return json.Unmarshal(body.Bytes(), req)
}

// writeError writes an error reply, indented as every response is.
func (s *Service) writeError(w http.ResponseWriter, code int, msg string) {
	t0 := time.Now()
	b, _ := json.MarshalIndent(errorReply{Error: msg}, "", "  ")
	b = append(b, '\n')
	s.reg.Add("service.encode_ns_total", int64(time.Since(t0)))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(b)
}

// observeLatency folds one analyze duration into the sliding window.
func (s *Service) observeLatency(ms float64) {
	s.latMu.Lock()
	s.lat[s.latNext] = ms
	s.latNext = (s.latNext + 1) % latencyRingSize
	if s.latLen < latencyRingSize {
		s.latLen++
	}
	s.latMu.Unlock()
}

// latencyQuantiles computes p50/p99 over the window (0,0 when empty).
func (s *Service) latencyQuantiles() (p50, p99 float64) {
	s.latMu.Lock()
	window := append([]float64(nil), s.lat[:s.latLen]...)
	s.latMu.Unlock()
	if len(window) == 0 {
		return 0, 0
	}
	sort.Float64s(window)
	return quantile(window, 0.50), quantile(window, 0.99)
}

// quantile picks the nearest-rank quantile from a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
