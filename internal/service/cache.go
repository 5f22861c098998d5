package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	artstore "repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/report"
)

// artifact is one compiled analysis pipeline, cached across requests and
// keyed by source hash × engine × plan. The zero value is "not compiled
// yet"; compile runs under the sync.Once, so concurrent requests for the
// same key single-flight onto exactly one front-end run and every waiter
// shares the result.
type artifact struct {
	once sync.Once

	// pipe is the loaded pipeline; nil when the front end failed.
	pipe *core.Pipeline
	// procs is every procedure's response text, sorted by name.
	procs []procText
	// diags are the static check findings (or the parse failure rendered
	// as a diagnostic, ptranlint-style).
	diags []report.Diagnostic
	// err is a non-diagnostic failure (front-end timeout, checker fault).
	// transient marks errors that must not stay cached — the caller drops
	// the entry so the next request retries.
	err       error
	transient bool
	// compileMs is the wall time the cold compile took; hits report it as
	// the latency they avoided.
	compileMs float64
}

// lintPasses are the check passes the collector runs inside analysis:
// all but "plan", whose proof runs on the pipeline's own plans instead of
// planning every procedure a second time (see compile).
var lintPasses = func() []string {
	var out []string
	for _, name := range check.PassNames() {
		if name != "plan" {
			out = append(out, name)
		}
	}
	return out
}()

// compile runs the front end once: parse → lower → analyze with the static
// check passes, then warms the artifact's derived caches (counter plans,
// and the bytecode program when the engine wants it) and renders the
// response text every request repeats, so cache hits skip every
// per-program cost. Detached from any request context on purpose — the
// artifact outlives the requester — but bounded by the server's compile
// budget.
func (a *artifact) compile(src string, eng interp.Engine, strat core.Strategy, budget time.Duration, disk *artstore.Store) {
	a.once.Do(func() {
		t0 := time.Now()
		defer func() { a.compileMs = float64(time.Since(t0)) / float64(time.Millisecond) }()
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		collector := &check.Collector{Opts: check.Options{Passes: lintPasses}}
		pipe, err := core.LoadCtx(ctx, src, core.LoadOptions{
			CheckProc: collector.CheckProc,
			Engine:    eng,
			Plan:      strat,
			Cache:     disk,
		})
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				a.err = fmt.Errorf("front end exceeded compile budget: %w", err)
				a.transient = true
				return
			}
			var se *lang.SyntaxError
			if errors.As(err, &se) {
				a.diags = []report.Diagnostic{{
					Severity: report.Error, Pass: "parse",
					Line: se.Line, Col: se.Col, Message: se.Msg,
				}}
				return
			}
			a.diags = []report.Diagnostic{{
				Severity: report.Error, Pass: "parse", Message: err.Error(),
			}}
			return
		}
		diags, err := collector.Diagnostics()
		if err != nil {
			a.err = err
			return
		}
		plans, err := pipe.Plans()
		if err != nil {
			a.err = fmt.Errorf("counter planning: %w", err)
			return
		}
		// The "plan" pass: prove the deployed plans sound.
		for name, plan := range plans {
			for _, d := range check.VerifyPlan(plan) {
				d.Pass, d.Proc = "plan", name
				diags = append(diags, d)
			}
		}
		report.Sort(diags)
		// Trigger the one-time bytecode compile now (a bailout is cached
		// and surfaces as the engine-fallback warning, not an error).
		pipe.EngineFallback()
		a.diags = diags
		a.procs = newProcTexts(pipe.An, plans)
		a.pipe = pipe
	})
}

// failed reports whether the artifact holds a front-end failure rather
// than a usable pipeline (its diags then carry the findings).
func (a *artifact) failed() bool { return a.pipe == nil }

// cacheKey derives the artifact key: content hash of the source crossed
// with the resolved engine and plan (resolved, so "default" and an
// explicit setting share one artifact).
func cacheKey(src string, eng interp.Engine, strat core.Strategy) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:]) + "|" + eng.String() + "|" + strat.String()
}

// lruCache is a size-bounded LRU of compiled artifacts. Eviction only
// unlinks the entry from the index: requests already holding the pointer
// finish against it, and the next request for that key recompiles.
type lruCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	idx map[string]*list.Element
}

type lruEntry struct {
	key string
	art *artifact
}

func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), idx: make(map[string]*list.Element)}
}

// get returns the artifact for key, creating it on miss; the second
// result reports a hit. The artifact may not be compiled yet — callers
// run artifact.compile, which single-flights.
func (c *lruCache) get(key string) (*artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry).art, true
	}
	art := &artifact{}
	c.idx[key] = c.ll.PushFront(&lruEntry{key: key, art: art})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*lruEntry).key)
	}
	return art, false
}

// drop removes key if it still maps to art — used to un-cache transient
// compile failures without racing a concurrent re-insert.
func (c *lruCache) drop(key string, art *artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok && el.Value.(*lruEntry).art == art {
		c.ll.Remove(el)
		delete(c.idx, key)
	}
}

// len reports the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
