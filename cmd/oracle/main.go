// Command oracle runs the differential/metamorphic verification harness
// over a corpus of generated programs and reports per-invariant pass/fail
// tallies as JSON, with failing cases minimized to the smallest generator
// knobs that still reproduce them.
//
// Usage:
//
//	oracle -seeds 200 [-start 1] [-size 8] [-depth 3] [-runs 3]
//	       [-workers N] [-invariants name,name,...] [-branchfree-every 4]
//	       [-detloop-every 6] [-constfacts-every 3] [-engine tree|vm|vm-batch]
//	       [-plan sarkar|ball-larus] [-no-minimize] [-quiet]
//
// The exit status is 0 when every invariant passes and 1 otherwise, so the
// command doubles as a CI gate (`make oracle`). To reproduce a failure, re-run
// with `-start <seed> -seeds 1 -size <min_size> -depth <min_depth>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/report"
)

func main() {
	seeds := flag.Int("seeds", 200, "number of generated programs")
	start := flag.Uint64("start", 1, "first program seed")
	size := flag.Int("size", 8, "generator size ceiling (per-seed spread 1..size)")
	depth := flag.Int("depth", 3, "generator loop/IF nesting depth")
	runs := flag.Int("runs", 3, "profiled interpreter runs per program")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent case evaluations")
	invariants := flag.String("invariants", "", "comma-separated invariant names (default: all)")
	branchFreeEvery := flag.Int("branchfree-every", 4, "every k-th case uses the branch-free program family (0 = never)")
	detLoopEvery := flag.Int("detloop-every", 6, "every k-th case uses the branch-free-plus-constant-trip-DO family (0 = never)")
	constFactsEvery := flag.Int("constfacts-every", 3, "every k-th random case carries the progen dataflow gadget block (0 = never)")
	stopsEvery := flag.Int("stops-every", 0, "every k-th random case generates with the stopping family (0 = never); pair with -invariants of the takings-level checks")
	engine := flag.String("engine", "", "execution engine for profiled runs: tree|vm|vm-batch (default: REPRO_ENGINE, else vm)")
	plan := flag.String("plan", "", "counter-placement strategy for profiled runs: sarkar|ball-larus (default: REPRO_PLAN, else sarkar)")
	noMinimize := flag.Bool("no-minimize", false, "skip shrinking failing cases")
	quiet := flag.Bool("quiet", false, "suppress the human-readable summary on stderr")
	diag := flag.Bool("diag", false, "emit the diagnostic document shared with ptranlint instead of the sweep report")
	list := flag.Bool("list", false, "list registry invariants and exit")
	cacheDir := artifact.AddCLIFlags(flag.CommandLine)
	obsCLI := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, inv := range oracle.Registry() {
			fmt.Printf("%-18s %s\n", inv.Name, inv.Desc)
		}
		return
	}

	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(2)
	}
	strat, err := core.ParseStrategy(*plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(2)
	}
	// Validate the cache directory up front; the artifact-roundtrip
	// invariant roots its per-case scratch caches under it.
	if _, err := artifact.StoreFromFlag(*cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(2)
	}
	cfg := oracle.Config{
		Engine:          eng,
		Plan:            strat,
		CacheDir:        *cacheDir,
		SeedStart:       *start,
		Seeds:           *seeds,
		Size:            *size,
		Depth:           *depth,
		ProfileRuns:     *runs,
		BranchFreeEvery: *branchFreeEvery,
		DetLoopEvery:    *detLoopEvery,
		ConstFactsEvery: *constFactsEvery,
		StopsEvery:      *stopsEvery,
		Workers:         *workers,
		Minimize:        !*noMinimize,
	}
	if *invariants != "" {
		cfg.Invariants = strings.Split(*invariants, ",")
	}
	if _, err := obsCLI.Begin(); err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(2)
	}
	rep, err := oracle.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(2)
	}
	if err := obsCLI.End("oracle"); err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(2)
	}
	if *diag {
		if err := report.NewDocument("oracle", rep.Diagnostics()).Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "oracle:", err)
			os.Exit(2)
		}
	} else {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "oracle:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	}
	if !*quiet {
		fmt.Fprint(os.Stderr, rep.Summary())
	}
	if !rep.AllPass {
		os.Exit(1)
	}
}
