package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/simplecfd"
)

// cache-edit is re-estimation after edits, the way `estimate -src -db
// -cache-dir` does it, over a project of two programs: LOOPS (25
// procedures) and SIMPLE (9 procedures). A reload loads and estimates
// both, each with core.LoadOpts through an on-disk artifact.Store plus an
// estimate from a profile captured in set-up. One op is an edit session:
// a one-procedure edit, to the two programs in turn, then a reload, then
// three more reloads of the unchanged source. An edit rewrites one REAL
// literal of a procedure chosen round-robin, so each edit has a new
// content hash. The front end and the artifact codec and store do the
// work, reads beside writes; no program runs.
//
// Why an op is a session of whole-project reloads: a LOOPS load costs
// about four SIMPLE loads, and an edit adds only ~0.3 ms to a ~3 ms
// reload. With one program per op, p50 fell on the edge between the two
// programs' clusters; with one reload per op, p90 fell on the edge of the
// reloads a collection or a file write slowed, and spread 9% from run to
// run.

const (
	sessionReloads = 4  // reloads per session: one after the edit, then unchanged source
	refEvery       = 12 // every refEvery-th session is checked against uncached loads
)

// realLiteral matches a REAL constant such as 0.001 or 2.5.
var realLiteral = regexp.MustCompile(`\b[0-9]+\.[0-9]+`)

// cacheProgram is one program of the workload and its edit sites.
type cacheProgram struct {
	name    string
	src     string
	procs   int
	sites   []int // end offset of the first REAL literal of each editable procedure
	profile profiler.ProgramProfile
	cur     string // the source the current group loads
	edits   int
}

// newCacheProgram finds, for every procedure with a REAL literal outside a
// PARAMETER statement, the end of its first one. PARAMETER values are part
// of every caller's cache key, so editing one would not be a
// one-procedure edit.
func newCacheProgram(name, src string) *cacheProgram {
	cp := &cacheProgram{name: name, src: src, cur: src}
	off, found := 0, false
	for _, line := range strings.SplitAfter(src, "\n") {
		stmt := strings.TrimSpace(line)
		isComment := len(line) > 0 && strings.ContainsRune("Cc*", rune(line[0]))
		switch {
		case isComment:
		case strings.HasPrefix(stmt, "PROGRAM ") || strings.HasPrefix(stmt, "SUBROUTINE ") || strings.Contains(stmt, "FUNCTION "):
			cp.procs++
			found = false
		case !found && !strings.HasPrefix(stmt, "PARAMETER"):
			if loc := realLiteral.FindStringIndex(line); loc != nil {
				cp.sites = append(cp.sites, off+loc[1])
				found = true
			}
		}
		off += len(line)
	}
	return cp
}

// edit returns the source with edit number k applied: digits appended to
// the literal of procedure k mod len(sites), unique per k.
func (cp *cacheProgram) edit(k int) string {
	at := cp.sites[k%len(cp.sites)]
	return cp.src[:at] + fmt.Sprintf("%09d", k) + cp.src[at:]
}

// cacheCounts are the artifact hits, misses and writes of a load or a reload.
type cacheCounts struct{ hits, misses, writes int }

func runCacheEdit(c runCfg, o *outcome) error {
	loopsSrc, simpleSrc := livermore.Source(loopsN, 1), simplecfd.Source(simpleN, simpleCycles)
	if c.quick {
		loopsSrc, simpleSrc = livermore.Source(10, 1), simplecfd.Source(8, 1)
	}
	progs := []*cacheProgram{newCacheProgram("LOOPS", loopsSrc), newCacheProgram("SIMPLE", simpleSrc)}
	for _, cp := range progs {
		if len(cp.sites) == 0 {
			return fmt.Errorf("%s has no editable REAL literal", cp.name)
		}
	}
	// A reload's work is serial: parse, lower, decode, and at most one
	// procedure to re-derive. On one P it runs as fast as on two, and the
	// run no longer slows whenever a neighbour holds the second CPU, which
	// spread p90 9-14% from run to run on a shared 2-core host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const workers = 1
	seeds := profileSeeds(c.seed, streamCacheSeeds, 1)
	var store *artifact.Store
	var dir string
	defer func() { os.RemoveAll(dir) }()
	cached := func() core.LoadOptions {
		return core.LoadOptions{Workers: workers, Engine: interp.EngineTree, Plan: core.StrategySarkar, Cache: store}
	}
	uncached := func(src string, profile profiler.ProgramProfile) (*core.ProgramEstimate, error) {
		p, err := core.LoadOpts(src, core.LoadOptions{Workers: workers, Engine: interp.EngineTree, Plan: core.StrategySarkar})
		if err != nil {
			return nil, err
		}
		return p.EstimateWithProfile(profile, cost.Optimized, core.Options{})
	}
	// Set-up captures each program's profile (on the VM, whose profiles
	// are bit-identical to the tree-walker's) and fills a fresh store with
	// a cold load of each.
	err := o.setup(func() error {
		os.RemoveAll(dir)
		var err error
		if dir, err = os.MkdirTemp("", "bench-cache-"); err != nil {
			return err
		}
		if store, err = artifact.Open(dir); err != nil {
			return err
		}
		for _, cp := range progs {
			p, err := core.LoadOpts(cp.src, core.LoadOptions{Workers: workers, Engine: interp.EngineVM})
			if err != nil {
				return fmt.Errorf("%s: %w", cp.name, err)
			}
			if cp.profile, _, err = p.Profile(interp.Options{}, seeds...); err != nil {
				return fmt.Errorf("%s: %w", cp.name, err)
			}
			if _, err := core.LoadOpts(cp.src, cached()); err != nil {
				return fmt.Errorf("%s: %w", cp.name, err)
			}
			cp.cur, cp.edits = cp.src, 0
		}
		return nil
	})
	if err != nil {
		return err
	}

	procs := 0
	for _, cp := range progs {
		procs += cp.procs
	}
	var sessions, traced, warm, uncachedMs []float64
	var warmHits, editMisses, editWrites, edits, tracedReloads, tracedEdits int
	var blobBytes float64
	lt, le := layerTimes{}, layerTimes{}
	// reload loads and estimates both programs once, through core or, when
	// traced, through the replica timed into l. It returns the estimates,
	// the artifact counts and the wall milliseconds.
	reload := func(tracedOp bool, l layerTimes) ([]*core.ProgramEstimate, cacheCounts, float64, error) {
		ests := make([]*core.ProgramEstimate, len(progs))
		var got cacheCounts
		before := obs.Default.Snapshot()
		t0 := time.Now()
		for k, cp := range progs {
			var err error
			if tracedOp {
				var cc cacheCounts
				var bytes int
				ests[k], cc, bytes, err = tracedCachedLoad(store, cp.cur, cp.profile, workers, l)
				got = cacheCounts{got.hits + cc.hits, got.misses + cc.misses, got.writes + cc.writes}
				blobBytes += float64(bytes)
			} else {
				var p *core.Pipeline
				if p, err = core.LoadOpts(cp.cur, cached()); err == nil {
					ests[k], err = p.EstimateWithProfile(cp.profile, cost.Optimized, core.Options{})
				}
			}
			if err != nil {
				return nil, got, 0, fmt.Errorf("%s: %w", cp.name, err)
			}
		}
		ms := msSince(t0)
		if !tracedOp {
			after := obs.Default.Snapshot()
			got = cacheCounts{
				hits:   int(after["artifact.hit"] - before["artifact.hit"]),
				misses: int(after["artifact.miss"] - before["artifact.miss"]),
				writes: int(after["artifact.write"] - before["artifact.write"]),
			}
		}
		return ests, got, ms, nil
	}
	// Every refEvery-th session's sources and estimates are checked against
	// uncached loads after the loop, so the garbage of those loads is not
	// collected inside a timed session.
	type checkCase struct {
		session int
		srcs    []string
		got     []timeVar
	}
	var checks []checkCase
	// In a traced run every second session is traced, and the edited
	// program alternates every two sessions, so traced and untraced
	// sessions both see edits of both programs.
	c.loop(4, 4, func(i int) {
		tracedOp := c.trace && i%2 == 1
		cp := progs[(i/2)%len(progs)]
		cp.edits++
		cp.cur = cp.edit(cp.edits)
		o.attempted++
		var sessionMs float64
		var ests []*core.ProgramEstimate
		for r := 0; r < sessionReloads; r++ {
			isEdit := r == 0
			l, want := lt, cacheCounts{hits: procs}
			if isEdit {
				l, want = le, cacheCounts{hits: procs - 1, misses: 1, writes: 1}
			}
			var got cacheCounts
			var ms float64
			var err error
			if ests, got, ms, err = reload(tracedOp, l); err != nil {
				o.opFailed(i, err)
				return
			}
			if got != want {
				o.opFailed(i, fmt.Errorf("reload %d: %d hits, %d misses, %d writes; want %d, %d, %d",
					r, got.hits, got.misses, got.writes, want.hits, want.misses, want.writes))
				return
			}
			sessionMs += ms
			switch {
			case tracedOp:
				tracedReloads++
				if isEdit {
					tracedEdits++
				}
			case isEdit:
				edits++
				editMisses += got.misses
				editWrites += got.writes
			default:
				warm = append(warm, ms)
				warmHits += got.hits
			}
		}
		if tracedOp {
			traced = append(traced, sessionMs)
		} else {
			sessions = append(sessions, sessionMs)
		}
		if i%refEvery == 0 {
			cc := checkCase{session: i}
			for k, cp := range progs {
				cc.srcs = append(cc.srcs, cp.cur)
				cc.got = append(cc.got, timesOf(ests[k]))
			}
			checks = append(checks, cc)
		}
	})
	for _, cc := range checks {
		var refMs float64
		for k, cp := range progs {
			t0 := time.Now()
			ref, err := uncached(cc.srcs[k], cp.profile)
			refMs += msSince(t0)
			if err == nil {
				err = cc.got[k].diff(timesOf(ref))
			}
			if err != nil {
				o.opFailed(cc.session, fmt.Errorf("%s: cached estimate differs from an uncached load: %w", cp.name, err))
				break
			}
		}
		uncachedMs = append(uncachedMs, refMs)
	}

	if !c.trace {
		o.latencies(sessions)
		return nil
	}
	if len(traced) == 0 || tracedEdits == 0 || len(warm) == 0 || edits == 0 {
		return fmt.Errorf("not every kind of session completed")
	}
	// Layers every reload goes through are averaged over all traced
	// reloads; the ones only an edit pays, over the traced edits.
	all := layerTimes{}
	var covered float64
	for _, l := range []layerTimes{lt, le} {
		for k, v := range l {
			all[k] += v
			covered += v
		}
	}
	o.metrics["trace.layer_coverage"] = covered / (mean(traced) * float64(len(traced)))
	all.addMeans(o.metrics, tracedReloads)
	o.metrics["artifact.encode_ms"] = le["artifact.encode_ms"] / float64(tracedEdits)
	o.metrics["artifact.put_ms"] = le["artifact.put_ms"] / float64(tracedEdits)
	o.metrics["artifact.edit_analyze_ms"] = le["analysis.analyze_ms"] / float64(tracedEdits)
	o.metrics["artifact.edit_plan_ms"] = le["profiler.plan_ms"] / float64(tracedEdits)
	o.metrics["artifact.blob_kb"] = blobBytes / 1e3 / float64(tracedReloads)
	o.metrics["artifact.hits_per_load"] = float64(warmHits) / float64(len(warm))
	o.metrics["artifact.misses_per_edit"] = float64(editMisses) / float64(edits)
	o.metrics["artifact.writes_per_edit"] = float64(editWrites) / float64(edits)
	o.metrics["artifact.uncached_p50_ms"] = median(uncachedMs)
	o.metrics["artifact.speedup"] = median(uncachedMs) / median(warm)
	o.traceOverhead(sessions, traced)
	return nil
}

// tracedCachedLoad does what core.LoadOpts does with an artifact store,
// from outside, then estimates: parse, lower, build every procedure's key
// (artifact.key_ms), Store.Get and DecodeProc each, analyze and plan only
// the misses, Encode and Put them, and price the profile. It returns the
// estimate, the cache counts and the bytes of the blobs it read.
func tracedCachedLoad(store *artifact.Store, src string, profile profiler.ProgramProfile, workers int, l layerTimes) (*core.ProgramEstimate, cacheCounts, int, error) {
	var cc cacheCounts
	var prog *lang.Program
	var res *lower.Result
	var err error
	if l.timed("lang.parse_ms", func() { prog, err = lang.Parse(src) }); err != nil {
		return nil, cc, 0, err
	}
	if l.timed("lower.lower_ms", func() { res, err = lower.Lower(prog) }); err != nil {
		return nil, cc, 0, err
	}
	keys := make(map[string]string, len(res.Procs))
	l.timed("artifact.key_ms", func() {
		link := artifact.LinkHash(prog)
		for name, proc := range res.Procs {
			keys[name] = artifact.ProcKey(artifact.UnitHash(proc.Unit), link, interp.EngineTree.String(), core.StrategySarkar.String())
		}
	})
	prebuilt := make(map[string]*analysis.Proc)
	prePlans := make(map[string]*profiler.Plan)
	var misses []string
	var bytes int
	for name, proc := range res.Procs {
		var blob []byte
		l.timed("artifact.get_ms", func() { blob = store.Get(keys[name]) })
		var pa *artifact.ProcArtifact
		if blob != nil {
			l.timed("artifact.decode_ms", func() { pa, err = artifact.DecodeProc(blob, proc) })
		}
		if blob == nil || err != nil {
			misses = append(misses, name)
			continue
		}
		bytes += len(blob)
		prebuilt[name], prePlans[name] = pa.An, pa.Sarkar
	}
	cc.hits, cc.misses = len(prebuilt), len(misses)
	var an *analysis.Program
	if l.timed("analysis.analyze_ms", func() {
		an, err = analysis.AnalyzeProgramOpts(res, analysis.Options{Workers: workers, Prebuilt: prebuilt})
	}); err != nil {
		return nil, cc, 0, err
	}
	var plans profiler.Plans
	if l.timed("profiler.plan_ms", func() { plans, err = profiler.BuildPlansPrebuilt(an, prePlans) }); err != nil {
		return nil, cc, 0, err
	}
	for _, name := range misses {
		var blob []byte
		l.timed("artifact.encode_ms", func() {
			blob = (&artifact.ProcArtifact{An: an.Procs[name], Sarkar: plans[name]}).Encode()
		})
		if l.timed("artifact.put_ms", func() { err = store.Put(keys[name], blob) }); err != nil {
			return nil, cc, 0, err
		}
		cc.writes++
	}
	est, err := tracedEstimate(an, plans, profile, l)
	return est, cc, bytes, err
}
