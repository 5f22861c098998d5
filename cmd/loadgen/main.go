// Command loadgen drives the analysis service under concurrent load and
// records the service-level numbers — p50/p99 latency, throughput, cache
// hit rate, cold-compile vs warm-hit latency — as a bench/v1 snapshot
// entry (report.BenchSnapshot).
//
// By default it spins the service up in-process on a loopback listener
// (so a single command measures the whole stack, HTTP included) and holds
// -c requests in flight until -n requests complete:
//
//	loadgen -n 5000 -c 1000 -out BENCH_2026-08-08d.json
//	loadgen -url http://host:8321   # aim at an external daemon instead
//
// The request mix cycles through -sources distinct program variants, so a
// run measures both cold compiles (first hit per variant) and warm cache
// hits (everything after).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/report"
	"repro/internal/service"
)

// makeSource builds one program variant: the variant constant makes each a
// distinct content hash (so -sources controls the cold-compile count), and
// the pad subroutines grow the compiled code without growing the executed
// trace — the cold/hot latency gap is the front end, which is exactly what
// the artifact cache amortizes.
func makeSource(variant, pad int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `      PROGRAM LOAD
      INTEGER I, S, T
      S = %d
      DO 10 I = 1, 20
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
`, variant)
	for p := 0; p < pad; p++ {
		fmt.Fprintf(&b, `
      SUBROUTINE PAD%d(N, T)
      INTEGER N, J, T
      T = 0
      DO 30 J = 1, N
         IF (T .GE. N) THEN
            T = T - N
         ELSE
            T = T + J
         ENDIF
   30 CONTINUE
      RETURN
      END
`, p)
	}
	return b.String()
}

type sample struct {
	ms  float64
	hit bool
}

func main() {
	url := flag.String("url", "", "service base URL (empty: run the service in-process)")
	n := flag.Int("n", 5000, "total requests")
	c := flag.Int("c", 1000, "concurrent in-flight requests")
	sources := flag.Int("sources", 8, "distinct program variants (cold compiles)")
	pad := flag.Int("pad", 24, "padding subroutines per variant (compile weight)")
	seeds := flag.Int("seeds", 3, "profiling seeds per request")
	workers := flag.Int("workers", 0, "in-process service worker slots (0 = GOMAXPROCS)")
	out := flag.String("out", "", "append a bench snapshot entry to this BENCH_<date>.json (created if missing)")
	entry := flag.String("entry", "service-loadgen", "bench entry name")
	cacheDir := artifact.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	disk, err := artifact.StoreFromFlag(*cacheDir)
	if err != nil {
		fatal(err)
	}

	base := *url
	if base == "" {
		// In-process server: the queue must hold the whole in-flight load
		// minus the workers, or the run would measure shedding, not latency.
		svc := service.New(service.Config{
			Workers:   *workers,
			Queue:     *c + 64,
			DiskCache: disk,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		srv := &http.Server{Handler: svc}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
	}

	bodies := make([][]byte, *sources)
	for i := range bodies {
		req := map[string]any{"source": makeSource(i, *pad), "seeds": seedList(*seeds)}
		b, err := json.Marshal(req)
		if err != nil {
			fatal(err)
		}
		bodies[i] = b
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *c,
			MaxIdleConnsPerHost: *c,
			MaxConnsPerHost:     0,
		},
		Timeout: 5 * time.Minute,
	}

	// Uncontended probes first: one cold request per variant (the compile)
	// and one warm request right after (the cache hit). Measuring these
	// outside the storm keeps queue wait out of the cold/hot comparison.
	var coldProbe, hotProbe []float64
	for i, b := range bodies {
		ms, hit, err := timedAnalyze(client, base, b)
		if err != nil {
			fatal(fmt.Errorf("cold probe %d: %w", i, err))
		}
		if hit {
			fatal(fmt.Errorf("cold probe %d unexpectedly hit the cache", i))
		}
		coldProbe = append(coldProbe, ms)
		ms, hit, err = timedAnalyze(client, base, b)
		if err != nil {
			fatal(fmt.Errorf("hot probe %d: %w", i, err))
		}
		if !hit {
			fatal(fmt.Errorf("hot probe %d missed the cache", i))
		}
		hotProbe = append(hotProbe, ms)
	}

	samples := make([]sample, *n)
	var (
		next        atomic.Int64
		inflight    atomic.Int64
		maxInflight atomic.Int64
		failures    atomic.Int64
	)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				cur := inflight.Add(1)
				for {
					old := maxInflight.Load()
					if cur <= old || maxInflight.CompareAndSwap(old, cur) {
						break
					}
				}
				rt0 := time.Now()
				hit, err := analyze(client, base, bodies[i%len(bodies)])
				ms := float64(time.Since(rt0)) / float64(time.Millisecond)
				inflight.Add(-1)
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", i, err)
					continue
				}
				samples[i] = sample{ms: ms, hit: hit}
			}
		}()
	}
	wg.Wait()
	wallMs := float64(time.Since(t0)) / float64(time.Millisecond)

	if failures.Load() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d requests failed\n", failures.Load(), *n)
		os.Exit(1)
	}

	var all []float64
	hits := 0
	for _, s := range samples {
		all = append(all, s.ms)
		if s.hit {
			hits++
		}
	}
	sort.Float64s(all)
	metrics := report.Metrics{
		"requests":         float64(*n),
		"concurrency":      float64(*c),
		"max_inflight":     float64(maxInflight.Load()),
		"requests_per_sec": float64(*n) / (wallMs / 1000),
		"latency_p50_ms":   quantile(all, 0.50),
		"latency_p99_ms":   quantile(all, 0.99),
		"cache_hit_rate":   float64(hits) / float64(*n),
		"cold_mean_ms":     mean(coldProbe),
		"hot_mean_ms":      mean(hotProbe),
	}
	if mean(hotProbe) > 0 {
		metrics["cold_over_hot"] = mean(coldProbe) / mean(hotProbe)
	}

	// Restart-warm probe: a brand-new in-process service sharing the same
	// on-disk artifact cache simulates a daemon restart. Its in-memory LRU
	// starts empty (every probe reports a cache miss), but the disk half
	// serves the per-procedure artifacts, so the "cold" compile after a
	// restart should sit far below the true cold compile above.
	if *url == "" && disk != nil {
		restart := service.New(service.Config{
			Workers:   *workers,
			Queue:     *c + 64,
			DiskCache: disk,
		})
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		rsrv := &http.Server{Handler: restart}
		go rsrv.Serve(rln)
		defer rsrv.Close()
		rbase := "http://" + rln.Addr().String()
		var restartProbe []float64
		for i, b := range bodies {
			ms, hit, err := timedAnalyze(client, rbase, b)
			if err != nil {
				fatal(fmt.Errorf("restart probe %d: %w", i, err))
			}
			if hit {
				fatal(fmt.Errorf("restart probe %d hit the in-memory cache of a fresh service", i))
			}
			restartProbe = append(restartProbe, ms)
		}
		metrics["restart_warm_mean_ms"] = mean(restartProbe)
		if mean(restartProbe) > 0 {
			metrics["cold_over_restart_warm"] = mean(coldProbe) / mean(restartProbe)
		}
		fmt.Printf("  restart-warm (disk cache, fresh service) %.2fms vs cold %.2fms (%.1fx)\n",
			metrics["restart_warm_mean_ms"], metrics["cold_mean_ms"], metrics["cold_over_restart_warm"])
	}

	fmt.Printf("loadgen: %d requests, %d in-flight (peak %d), %.0f req/s\n",
		*n, *c, maxInflight.Load(), metrics["requests_per_sec"])
	fmt.Printf("  storm p50 %.2fms p99 %.2fms, hit rate %.1f%% | uncontended cold %.2fms hot %.2fms (%.0fx)\n",
		metrics["latency_p50_ms"], metrics["latency_p99_ms"], 100*metrics["cache_hit_rate"],
		metrics["cold_mean_ms"], metrics["hot_mean_ms"], metrics["cold_over_hot"])

	if *out != "" {
		if err := save(*out, *entry, wallMs, metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %s entry %q\n", *out, *entry)
	}
}

// timedAnalyze is analyze plus the wall-clock latency in milliseconds.
func timedAnalyze(client *http.Client, base string, body []byte) (float64, bool, error) {
	t0 := time.Now()
	hit, err := analyze(client, base, body)
	return float64(time.Since(t0)) / float64(time.Millisecond), hit, err
}

// analyze posts one request and returns whether the artifact cache hit.
func analyze(client *http.Client, base string, body []byte) (bool, error) {
	resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		CacheHit bool `json:"cache_hit"`
		Errors   int  `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, err
	}
	if out.Errors != 0 {
		return false, fmt.Errorf("%d error diagnostics", out.Errors)
	}
	return out.CacheHit, nil
}

// save appends the entry to an existing snapshot of the same schema, or
// starts a fresh one.
func save(path, name string, wallMs float64, metrics report.Metrics) error {
	snap, err := report.LoadBench(path)
	if err != nil {
		if !os.IsNotExist(err) {
			if _, statErr := os.Stat(path); statErr == nil {
				return err // exists but unreadable/mismatched: do not clobber
			}
		}
		snap = &report.BenchSnapshot{
			Schema:    report.BenchSchema,
			Tool:      "loadgen",
			Date:      time.Now().Format("2006-01-02"),
			GoVersion: runtime.Version(),
			MaxProcs:  runtime.GOMAXPROCS(0),
		}
	}
	if e := snap.Entry(name); e != nil {
		e.WallMs = wallMs
		e.Metrics = metrics
	} else {
		snap.Entries = append(snap.Entries, report.BenchEntry{Name: name, WallMs: wallMs, Metrics: metrics})
	}
	return snap.Save(path)
}

func seedList(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
