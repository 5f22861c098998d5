package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	artstore "repro/internal/artifact"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/report"
)

// srcOK is a well-formed program with a call, a data-dependent branch and
// two loops — enough to exercise planning, profiling and estimation.
const srcOK = `      PROGRAM SMOKE
      INTEGER I, S, T
      S = 0
      DO 10 I = 1, 10
         IF (RAND() .GE. 0.5) THEN
            CALL WORK(I, T)
            S = S + T
         ENDIF
   10 CONTINUE
      END

      SUBROUTINE WORK(N, T)
      INTEGER N, J, T
      T = 0
      DO 20 J = 1, N
         T = T + J
   20 CONTINUE
      RETURN
      END
`

// srcSlow burns a few million interpreter steps per seed, so a request
// stays in flight long enough for the drain test to observe it.
const srcSlow = `      PROGRAM SLOW
      INTEGER I, J, S
      S = 0
      DO 10 I = 1, 1000
         DO 20 J = 1, 1000
            S = S + 1
   20    CONTINUE
   10 CONTINUE
      END
`

const srcBad = `      PROGRAM BAD
      PRINT S
      END
`

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, *AnalyzeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return resp, &out
}

func counter(reg *obs.Registry, name string) float64 { return reg.Snapshot()[name] }

// TestSingleFlightCompile slams one source with concurrent identical
// requests and asserts the artifact compiled exactly once: one cache miss,
// everything else a hit against the single-flighted artifact. The service
// sizes its own queue for the burst: with the default (no queue, one worker
// per core) a small host sheds the overlap with 503 before the requests
// ever reach the single-flight.
func TestSingleFlightCompile(t *testing.T) {
	const n = 32
	reg := &obs.Registry{}
	svc := New(Config{Workers: 2, Queue: n, Metrics: reg})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	var wg sync.WaitGroup
	hits := make([]bool, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK})
			codes[i] = resp.StatusCode
			hits[i] = out.CacheHit
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("cache misses among responses = %d, want exactly 1", misses)
	}
	if got := counter(reg, "service.cache_misses_total"); got != 1 {
		t.Errorf("cache_misses_total = %v, want 1", got)
	}
	if got := counter(reg, "service.cache_hits_total"); got != n-1 {
		t.Errorf("cache_hits_total = %v, want %d", got, n-1)
	}
}

// TestQueueFullSheds verifies the admission path: with one worker slot
// held and no queue, a request is shed with 503 + Retry-After, and succeeds
// once the slot frees up.
func TestQueueFullSheds(t *testing.T) {
	reg := &obs.Registry{}
	svc := New(Config{Workers: 1, Queue: 0, Metrics: reg})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	svc.lim.sem <- struct{}{} // occupy the only worker slot
	resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if out.Errors != 0 {
		t.Errorf("shed response carried diagnostics: %+v", out)
	}
	if got := counter(reg, "service.shed_total"); got != 1 {
		t.Errorf("shed_total = %v, want 1", got)
	}

	<-svc.lim.sem // free the slot
	resp, _ = postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d, want 200", resp.StatusCode)
	}
}

// TestQueueWaitRespectsDeadline parks a request in the wait queue behind a
// held worker slot and lets its deadline expire there: 504, not a hang.
func TestQueueWaitRespectsDeadline(t *testing.T) {
	reg := &obs.Registry{}
	svc := New(Config{Workers: 1, Queue: 1, RequestTimeout: 50 * time.Millisecond, Metrics: reg})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	svc.lim.sem <- struct{}{}
	defer func() { <-svc.lim.sem }()
	resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := counter(reg, "service.timeout_total"); got != 1 {
		t.Errorf("timeout_total = %v, want 1", got)
	}
	if got := svc.lim.depth(); got != 0 {
		t.Errorf("queue depth after timeout = %d, want 0", got)
	}
}

// TestShutdownDrains starts a slow analysis, shuts the service down while
// it is in flight, and asserts the in-flight request completes with 200
// while new requests are rejected as draining.
func TestShutdownDrains(t *testing.T) {
	svc := New(Config{Workers: 2, Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	type result struct {
		code int
		hit  bool
	}
	done := make(chan result, 1)
	go func() {
		resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcSlow, Seeds: []uint64{1, 2, 3, 4}})
		done <- result{resp.StatusCode, out.CacheHit}
	}()

	// Wait until the slow request holds a worker slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.lim.running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never started running")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Shutdown only returns once the handler finished; the response may
	// still be in flight on the wire, so wait briefly rather than polling
	// the channel non-blocking.
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Errorf("in-flight request finished with %d, want 200", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not complete after drain")
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"source":"X"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown status = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown healthz = %d, want 503", resp.StatusCode)
	}
}

// TestAnalyzeAcrossEngines runs the same request through all three engines
// and both plans and asserts every combination produces the same TIME/VAR
// estimate for the main unit.
func TestAnalyzeAcrossEngines(t *testing.T) {
	svc := New(Config{Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	var baseline report.Metrics
	for _, engine := range []string{"tree", "vm", "vm-batch"} {
		for _, plan := range []string{"sarkar", "ball-larus"} {
			resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{
				Source: srcOK, Engine: engine, Plan: plan, Seeds: []uint64{1, 2, 3},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d", engine, plan, resp.StatusCode)
			}
			if out.Engine != engine || out.Plan != plan {
				t.Fatalf("%s/%s: echoed %s/%s", engine, plan, out.Engine, out.Plan)
			}
			if out.Main != "SMOKE" {
				t.Fatalf("%s/%s: main = %q, want SMOKE", engine, plan, out.Main)
			}
			var est report.Metrics
			for _, pr := range out.Procs {
				if pr.Name == out.Main {
					est = pr.Estimate
				}
				if len(pr.Counters) == 0 {
					t.Errorf("%s/%s: proc %s reported no counter plan", engine, plan, pr.Name)
				}
			}
			if est == nil || est["time"] <= 0 {
				t.Fatalf("%s/%s: missing or non-positive main estimate: %v", engine, plan, est)
			}
			if baseline == nil {
				baseline = est
				continue
			}
			for _, k := range []string{"time", "var", "std_dev"} {
				if math.Abs(est[k]-baseline[k]) > 1e-9*math.Max(1, math.Abs(baseline[k])) {
					t.Errorf("%s/%s: %s = %v, want %v (engine/plan changed the estimate)",
						engine, plan, k, est[k], baseline[k])
				}
			}
		}
	}
}

// TestAnalyzeDefaultEngine: a request that names no engine runs on the
// resolved default and echoes it: the bytecode VM unless REPRO_ENGINE
// names another.
func TestAnalyzeDefaultEngine(t *testing.T) {
	svc := New(Config{Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	want := "vm"
	if os.Getenv("REPRO_ENGINE") != "" {
		want = interp.EffectiveEngine(interp.EngineDefault).String()
	}
	resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK, Seeds: []uint64{1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Engine != want {
		t.Fatalf("echoed engine %q, want %q", out.Engine, want)
	}
}

// TestAnalyzeErrors covers the non-200 request paths.
func TestAnalyzeErrors(t *testing.T) {
	svc := New(Config{MaxSourceBytes: 4096, Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	t.Run("front-end diagnostics are a 422 document", func(t *testing.T) {
		resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcBad})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		if out.Errors == 0 || len(out.Diagnostics) == 0 {
			t.Errorf("422 without diagnostics: %+v", out)
		}
		if out.Diagnostics[0].Pass != "parse" {
			t.Errorf("pass = %q, want parse", out.Diagnostics[0].Pass)
		}
	})
	t.Run("bad engine is a 400", func(t *testing.T) {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK, Engine: "jit"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("missing source is a 400", func(t *testing.T) {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: "   "})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("oversized body is a 413", func(t *testing.T) {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: strings.Repeat("X", 8192)})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
	// The body is read whole before it is decoded, so the bound holds
	// even when a valid request object starts the body, and data after
	// the object is an error.
	postRaw := func(t *testing.T, body string) int {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	valid, err := json.Marshal(AnalyzeRequest{Source: srcOK})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("oversized body after a valid object is a 413", func(t *testing.T) {
		if code := postRaw(t, string(valid)+strings.Repeat(" ", 8192)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", code)
		}
	})
	t.Run("data after the request object is a 400", func(t *testing.T) {
		if code := postRaw(t, string(valid)+` {"source": "x"}`); code != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", code)
		}
	})
	t.Run("GET is a 405", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/analyze")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestTransientCompileFailureNotCached drives a compile into its deadline
// and asserts the poisoned artifact is dropped, so a later request under a
// sane budget succeeds.
func TestTransientCompileFailureNotCached(t *testing.T) {
	reg := &obs.Registry{}
	svc := New(Config{RequestTimeout: time.Nanosecond, Metrics: reg})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := svc.cache.len(); got != 0 {
		t.Errorf("cache retained the transient failure: %d entries", got)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition carries the service
// family and the scrape-time gauges.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: srcOK})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}
	spans := map[string]bool{}
	for _, sp := range out.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"decode", "queue_wait", "compile", "profile", "estimate"} {
		if !spans[want] {
			t.Errorf("response spans %v lack %q", out.Spans, want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE repro_service_requests_total counter",
		"repro_service_requests_total 1",
		"# TYPE repro_service_latency_p99_ms gauge",
		"# TYPE repro_service_cache_entries gauge",
		"repro_service_cache_entries 1",
		"# TYPE repro_service_encode_ns_total counter",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q\n%s", want, b.String())
		}
	}
	// One response was encoded before the scrape, so its time is counted.
	if ns := counter(svc.reg, "service.encode_ns_total"); ns <= 0 {
		t.Errorf("service.encode_ns_total = %v after one response, want > 0", ns)
	}
}

// TestLRUEviction fills the cache past capacity with distinct sources and
// asserts the entry count stays bounded.
func TestLRUEviction(t *testing.T) {
	svc := New(Config{CacheSize: 4, Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for i := 0; i < 8; i++ {
		src := strings.Replace(srcOK, "S = 0", fmt.Sprintf("S = %d", i), 1)
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: status %d", i, resp.StatusCode)
		}
	}
	if got := svc.cache.len(); got != 4 {
		t.Errorf("cache entries = %d, want 4 (LRU bound)", got)
	}
}

// TestServiceRestartWarmFromDisk: a restarted daemon (a fresh Service on
// the same disk cache) serves a request warm from the artifacts its
// predecessor wrote — artifact hits rise, its in-memory cache is not
// what served it, and the response is the one the first service sent.
func TestServiceRestartWarmFromDisk(t *testing.T) {
	disk, err := artstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := AnalyzeRequest{Source: srcOK, Engine: "vm", Plan: "ball-larus", Seeds: []uint64{1, 2, 3}}
	serve := func() *AnalyzeResponse {
		ts := httptest.NewServer(New(Config{Metrics: &obs.Registry{}, DiskCache: disk}))
		defer ts.Close()
		resp, out := postAnalyze(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if out.CacheHit {
			t.Fatal("a fresh service reported an in-memory cache hit")
		}
		out.Spans = nil // timings differ run to run
		return out
	}
	first := serve()
	hitsBefore := obs.Default.Snapshot()["artifact.hit"]
	second := serve()
	if got := obs.Default.Snapshot()["artifact.hit"] - hitsBefore; got != 2 {
		t.Errorf("restarted service: artifact.hit rose by %v, want one per procedure (2)", got)
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("restarted service answered differently:\n%s\nvs\n%s", a, b)
	}
}

// TestRuntimeErrorIs422: a program that fails at run time is the
// request's fault. Here an array extent product that wraps int64 (2**32
// squared wraps to 0) once panicked the VM inside a batch lane goroutine
// and took the whole daemon down; now every engine reports an
// array-size runtime error, and the daemon answers 422.
func TestRuntimeErrorIs422(t *testing.T) {
	svc := New(Config{Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	src := `      PROGRAM P
      INTEGER N
      PARAMETER (N = 4294967296)
      REAL A(N, N)
      A(5,7) = 1.0
      END
`
	for _, engine := range []string{"tree", "vm", "vm-batch"} {
		body, err := json.Marshal(AnalyzeRequest{Source: src, Engine: engine, Seeds: []uint64{1, 2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply errorReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", engine, err)
		}
		switch resp.StatusCode {
		case http.StatusUnprocessableEntity:
			if !strings.Contains(reply.Error, "array A too large") {
				t.Fatalf("%s: 422 error %q, want the array-size runtime error", engine, reply.Error)
			}
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// Load shedding or a deadline on a slow host is not a
			// verdict on the program.
		default:
			t.Fatalf("%s: status %d, want 422", engine, resp.StatusCode)
		}
	}
}

// TestPrintStringIs200: a program that PRINTs a string literal runs with
// its output discarded, as every daemon run does, and gets a 200.
func TestPrintStringIs200(t *testing.T) {
	svc := New(Config{Metrics: &obs.Registry{}})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	src := `      PROGRAM P
      INTEGER N
      N = 3
      PRINT *, 'N =', N
      END
`
	for _, engine := range []string{"tree", "vm", "vm-batch"} {
		resp, out := postAnalyze(t, ts.URL, AnalyzeRequest{Source: src, Engine: engine})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200: %+v", engine, resp.StatusCode, out)
		}
	}
}
