package core

import (
	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/profiler"
)

// cacheState is a Pipeline's connection to the on-disk artifact cache:
// what was decoded on load (the warm half, consumed by the lazy plan
// builder) and what must be written back once the missed procedures have
// been re-derived.
type cacheState struct {
	store *artifact.Store
	// keys maps procedure name to its cache key under the load's engine,
	// plan and program linkage.
	keys map[string]string
	// missed names the procedures whose artifacts must be freshly derived
	// and saved (absent, version-skewed, or corrupt entries).
	missed map[string]bool
	// sarkar holds the decoded counter plan of every hit procedure.
	sarkar map[string]*profiler.Plan
}

// engineKeyPart collapses the engine to its key part: vm and vm-batch
// share cache entries.
func engineKeyPart(eng interp.Engine) string {
	if interp.EffectiveEngine(eng).VMBased() {
		return "vm"
	}
	return "tree"
}

// loadCache consults the store for every procedure and returns the cache
// state plus the prebuilt analyses for the hits. Every failure mode —
// absent file, version skew, checksum mismatch, malformed section, missing
// required section — is a miss (rejects additionally count artifact.reject);
// loading never fails because of the cache.
func loadCache(store *artifact.Store, prog *lang.Program, res *lower.Result,
	eng interp.Engine, plan Strategy, tr *obs.Trace) (*cacheState, map[string]*analysis.Proc) {
	sp := tr.Start("cache.load")
	st := &cacheState{
		store:  store,
		keys:   make(map[string]string, len(res.Procs)),
		missed: make(map[string]bool),
		sarkar: make(map[string]*profiler.Plan),
	}
	linkHash := artifact.LinkHash(prog)
	engPart := engineKeyPart(eng)
	planPart := EffectiveStrategy(plan).String()
	prebuilt := make(map[string]*analysis.Proc)
	var hits, misses int64
	for name, proc := range res.Procs {
		key := artifact.ProcKey(artifact.UnitHash(proc.Unit), linkHash, engPart, planPart)
		st.keys[name] = key
		pa := decode(store.Get(key), proc)
		if pa == nil {
			st.missed[name] = true
			misses++
			continue
		}
		hits++
		prebuilt[name] = pa.An
		st.sarkar[name] = pa.Sarkar
	}
	obs.Default.Add("artifact.hit", hits)
	obs.Default.Add("artifact.miss", misses)
	sp.End(obs.M("hits", float64(hits)), obs.M("misses", float64(misses)))
	return st, prebuilt
}

// decode decodes a blob; nil means miss.
func decode(blob []byte, proc *lower.Proc) *artifact.ProcArtifact {
	if blob == nil {
		return nil
	}
	pa, err := artifact.DecodeProc(blob, proc)
	if err != nil {
		obs.Default.Add("artifact.reject", 1)
		return nil
	}
	return pa
}

// warmAndSave re-derives the counter plans through the Pipeline's normal
// lazy builder — seeded with the decoded warm half, so hits are not
// recomputed — and writes one blob per missed procedure. A planning
// failure is not a load failure: it resurfaces on the first
// Profile/Estimate exactly as without a cache, and nothing is saved.
func (p *Pipeline) warmAndSave() {
	st := p.cache
	if st == nil {
		return
	}
	plans, err := p.profilePlans()
	if err != nil {
		return
	}
	sp := p.Trace.Start("cache.save")
	var writes int64
	for name := range st.missed {
		pa := &artifact.ProcArtifact{An: p.An.Procs[name], Sarkar: plans[name]}
		if err := st.store.Put(st.keys[name], pa.Encode()); err != nil {
			obs.Default.Add("artifact.write_errors", 1)
			continue
		}
		writes++
	}
	obs.Default.Add("artifact.write", writes)
	sp.End(obs.M("writes", float64(writes)))
}
