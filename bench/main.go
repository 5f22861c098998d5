// Command bench is the repository benchmark. It runs one of four workloads
// through the entry points users call (core.LoadOpts, Estimate, Profile,
// core.EstimateProgram and HTTP POST /v1/analyze), checks every output
// against an independent reference, and prints one JSON result line whose
// metrics are the end-to-end metrics BENCHMARK.json declares — or, with
// --trace 1, its per-layer metrics, measured by timing calls into each
// module's public functions from here.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload cold-large --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                       # every workload, each in a child process
//	bash bench/run.sh --repeat 5 --workload cache-edit
//	bash bench/run.sh --ab HEAD~1 --workload table1-profile
//
// bench/README.md has the metric glossary and the reasons for each
// workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a workload sets up in one run; setup_s is
// the median, so one slow set-up does not move it.
const setupRuns = 3

// workloads maps each workload name to its implementation. The names are
// fixed: BENCHMARK.json and later changes cite them.
var workloads = map[string]func(runCfg, *outcome) error{
	"cold-large":     runColdLarge,
	"table1-profile": runTable1,
	"cache-edit":     runCacheEdit,
	"service-mix":    runServiceMix,
}

// runCfg is what one run of one workload is told.
type runCfg struct {
	seed    uint64
	seconds float64 // how long the op loop measures
	trace   bool    // split ops into layers and report per-layer metrics
	quick   bool    // tiny fixed op counts instead of timing (smoke test)
	root    string  // repository root, where examples/ lives
}

// loop runs op(0), op(1), ... until the measuring time is up, checking the
// clock only before ops whose index is a multiple of every, so a run
// always ends on a whole group of ops. In quick mode it runs quickOps ops.
func (c runCfg) loop(quickOps, every int, op func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if c.quick {
			if i >= quickOps {
				return
			}
		} else if i%every == 0 && i > 0 && time.Since(start).Seconds() >= c.seconds {
			return
		}
		op(i)
	}
}

// outcome is what a workload measured: op counts, metric values by name,
// and the checks that failed.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// problem records a failed check; the run then reports correct=false.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// opFailed counts op i as failed and records why.
func (o *outcome) opFailed(i int, err error) {
	o.failed++
	o.problem("op %d: %v", i, err)
}

// setup runs f setupRuns times and records the median wall time as
// setup_s. The state f leaves behind on its last call is what the run uses.
func (o *outcome) setup(f func() error) error {
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = median(ts)
	return nil
}

// latencies records p50_ms, p90_ms and ops_per_s from per-op wall times.
// ops_per_s counts op time only, not the checks between ops.
func (o *outcome) latencies(ms []float64) {
	s := sorted(ms)
	o.metrics["p50_ms"] = quantile(s, 0.5)
	o.metrics["p90_ms"] = quantile(s, 0.9)
	o.metrics["ops_per_s"] = 1000 / mean(ms)
}

// traceOverhead records the tracing overhead, traced p50 over untraced p50
// minus one, from ops of both kinds interleaved in the same run.
func (o *outcome) traceOverhead(untraced, traced []float64) {
	o.metrics["trace.overhead"] = quantile(sorted(traced), 0.5)/quantile(sorted(untraced), 0.5) - 1
}

// metricValue and result are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSpec and spec are the parts of BENCHMARK.json the benchmark reads:
// metric names, units, directions and bounds.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	var out []string
	for _, w := range sp.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// runWorkload runs one workload in this process and returns its result
// line, holding exactly the metrics the spec declares for the mode, and
// the failed checks.
func runWorkload(sp *spec, name string, c runCfg) (*result, []string, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	o := newOutcome()
	stop := make(chan struct{})
	rss := make(chan rssResult, 1)
	go func() { rss <- sampleRSS(stop) }()
	err := run(c, o)
	close(stop)
	r := <-rss
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if o.attempted < 1 {
		return nil, nil, fmt.Errorf("%s: no op ran", name)
	}
	o.metrics["rss_mb"] = quantile(sorted(r.mb), 0.9)
	want, other := sp.EndToEnd, sp.PerLayer
	if c.trace {
		want, other = other, want
	}
	res := &result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	declared := make(map[string]bool)
	for _, m := range other {
		declared[m.Name] = true
	}
	for _, m := range want {
		declared[m.Name] = true
		v, ok := o.metrics[m.Name]
		// A layer a workload never enters reads 0; an end-to-end metric
		// every workload must measure.
		if !ok && !c.trace {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s not measured", name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for m := range o.metrics {
		if !declared[m] {
			return nil, nil, fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", name, m)
		}
	}
	return res, o.problems, nil
}

// rssEvery is how often a run samples its resident set size.
const rssEvery = 10 * time.Millisecond

type rssResult struct {
	mb  []float64
	err error
}

// sampleRSS samples the process's resident set size, in MB, every rssEvery
// until stop is closed. Their 90th percentile, rss_mb, holds steadier
// than the peak: on a heap of a few tens of MB the peak moves with where
// the collector happened to run. Unlike the median, it still reads the
// plateau of a heap that grows through the run, as the service's LRU does.
func sampleRSS(stop <-chan struct{}) rssResult {
	var r rssResult
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	page := float64(os.Getpagesize())
	for {
		b, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			r.err = fmt.Errorf("reading the resident set size: %w", err)
			return r
		}
		var size, resident float64
		if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
			r.err = fmt.Errorf("parsing /proc/self/statm: %w", err)
			return r
		}
		r.mb = append(r.mb, resident*page/1e6)
		select {
		case <-stop:
			return r
		case <-tick.C:
		}
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run in this process (empty: every workload, each in its own child process)")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are made from")
	seconds := flag.Float64("seconds", 0, "seconds each run measures (0: run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: split the ops into layers and report the per-layer metrics")
	quick := flag.Bool("quick", false, "run tiny fixed op counts instead of timing (smoke test)")
	repeat := flag.Int("repeat", 0, "run each workload N times with seeds seed..seed+N-1 and print every metric's median, quartiles and IQR/median")
	abRev := flag.String("ab", "", "git revision to compare this tree against, in alternating pairs of runs")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload in -ab mode")
	flag.Parse()

	// Pin the engine and plan defaults: the workloads choose them.
	os.Unsetenv("REPRO_ENGINE")
	os.Unsetenv("REPRO_PLAN")
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))

	sp, err := loadSpec(".")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	names := sp.workloadNames()
	if *workload != "" {
		if _, ok := workloads[*workload]; !ok {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", ")))
		}
		names = []string{*workload}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	child := childRun{seconds: *seconds, trace: *trace, quick: *quick}

	switch {
	case *abRev != "":
		if err := runAB(sp, self, *abRev, names, *seed, *pairs, child); err != nil {
			fatal(err)
		}
	case *repeat > 0:
		if err := runRepeat(sp, self, names, *seed, *repeat, child); err != nil {
			fatal(err)
		}
	case *workload == "":
		ok := true
		for _, name := range names {
			res, err := child.run(self, ".", name, *seed)
			if err != nil {
				fatal(err)
			}
			printHuman(name, res)
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			ok = ok && res.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		c := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, root: "."}
		res, problems, err := runWorkload(sp, *workload, c)
		if err != nil {
			fatal(err)
		}
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "bench: check failed:", p)
		}
		rec, _ := json.Marshal(map[string]any{"run": hostRecord(".", *workload, *seed, c.trace)})
		fmt.Println(string(rec))
		printHuman(*workload, res)
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// printHuman writes every metric by name, value and unit to stderr.
func printHuman(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%t attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// hostRecord describes what a run ran on, so results stay attributable.
func hostRecord(root, workload string, seed uint64, trace bool) map[string]any {
	rev, dirty := gitRev(root)
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"rev":        rev,
		"dirty":      dirty,
	}
}

// gitRev returns the commit root is checked out at and whether the tree
// has uncommitted changes; "unknown" when root is not a git work tree of
// its own.
func gitRev(root string) (string, bool) {
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	top, err := git("rev-parse", "--show-toplevel")
	here, herr := filepath.Abs(root)
	if err == nil && herr == nil {
		here, herr = filepath.EvalSymlinks(here)
		top, err = filepath.EvalSymlinks(top)
	}
	if err != nil || herr != nil || here != top {
		return "unknown", false
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	status, err := git("status", "--porcelain")
	return rev, err != nil || status != ""
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
