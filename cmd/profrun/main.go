// Command profrun executes a program with optimized counter-based
// profiling and accumulates the recovered TOTAL_FREQ profile into a
// program-database JSON file, merging with any existing content — the
// paper's workflow of gathering representative frequencies over several
// runs.
//
// Usage:
//
//	profrun -src prog.f -db profile.json [-seeds 1,2,3] [-workers N]
//	        [-engine tree|vm|vm-batch] [-plan sarkar|ball-larus]
//	        [-loopvar] [-check] [-print]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/profiler"
)

func main() {
	src := flag.String("src", "", "source file (required)")
	dbPath := flag.String("db", "", "program database file to create or merge into (required)")
	seeds := flag.String("seeds", "1", "comma-separated interpreter seeds, one run each")
	loopvar := flag.Bool("loopvar", false, "also collect loop-frequency variance (extra instrumented run per seed)")
	show := flag.Bool("print", false, "print program output (PRINT statements)")
	runCheck := flag.Bool("check", false, "run the static checker passes; error findings abort")
	engine := flag.String("engine", "", "execution engine: tree|vm|vm-batch (default: REPRO_ENGINE, else vm)")
	plan := flag.String("plan", "", "counter-placement strategy: sarkar|ball-larus (default: REPRO_PLAN, else sarkar)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for analysis and per-seed profiling runs")
	cacheDir := artifact.AddCLIFlags(flag.CommandLine)
	obsCLI := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "profrun:", err)
		os.Exit(1)
	}
	tr, err := obsCLI.Begin()
	if err != nil {
		fail(err)
	}
	if *src == "" || *dbPath == "" {
		fail(fmt.Errorf("-src and -db are required"))
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		fail(err)
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fail(err)
	}
	strat, err := core.ParseStrategy(*plan)
	if err != nil {
		fail(err)
	}
	store, err := artifact.StoreFromFlag(*cacheDir)
	if err != nil {
		fail(err)
	}
	loadOpts := core.LoadOptions{Workers: *workers, Trace: tr, Engine: eng, Plan: strat, Cache: store}
	var collector *check.Collector
	if *runCheck {
		collector = &check.Collector{}
		loadOpts.CheckProc = collector.CheckProc
	}
	p, err := core.LoadOpts(string(text), loadOpts)
	if err != nil {
		fail(err)
	}
	if collector != nil {
		if err := check.Gate(os.Stderr, *src, collector); err != nil {
			fail(err)
		}
	}
	var seedList []uint64
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fail(fmt.Errorf("bad seed %q", s))
		}
		seedList = append(seedList, v)
	}

	db := database.New(*src)
	if _, err := os.Stat(*dbPath); err == nil {
		db, err = database.Load(*dbPath)
		if err != nil {
			fail(err)
		}
	}

	opts := interp.Options{}
	if *show {
		opts.Out = os.Stdout
	}
	profile, _, err := p.Profile(opts, seedList...)
	if err != nil {
		fail(err)
	}
	db.Merge(profile, len(seedList), seedList...)
	if *loopvar {
		for _, seed := range seedList {
			// The profiling run above already printed this seed's output.
			moments, err := profiler.VarianceRun(p.An, interp.Options{Seed: seed})
			if err != nil {
				fail(err)
			}
			db.MergeLoopMoments(moments)
		}
	}
	if err := db.Save(*dbPath); err != nil {
		fail(err)
	}
	fmt.Printf("profrun: %d run(s) merged into %s (now %d runs total)\n",
		len(seedList), *dbPath, db.Runs)
	if err := obsCLI.End("profrun"); err != nil {
		fail(err)
	}
}
