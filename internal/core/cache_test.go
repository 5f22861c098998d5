package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/obs"
)

const cacheSrc = `      PROGRAM CMAIN
      INTEGER I
      REAL X, S
      S = 0.0
      DO 10 I = 1, 20
         X = RAND()
         IF (X .LT. 0.5) THEN
            CALL CSUB(S)
         ELSE
            S = S + X
         ENDIF
   10 CONTINUE
      PRINT *, S
      END

      SUBROUTINE CSUB(S)
      REAL S
      INTEGER J
      DO 20 J = 1, 8
         S = S + 0.25
   20 CONTINUE
      RETURN
      END
`

func openStore(t *testing.T) *artifact.Store {
	t.Helper()
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func metric(name string) int64 {
	return int64(obs.Default.Snapshot()[name])
}

// estimateAll runs the full pipeline and returns TIME/VAR of main — the
// values the cache must reproduce bit-identically.
func estimateAll(t *testing.T, p *Pipeline) (float64, float64) {
	t.Helper()
	est, err := p.Estimate(cost.Optimized, Options{}, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return est.Main.Time, est.Main.Var
}

// TestCacheWarmLoadBitIdentical: cold load populates the cache; a warm
// load of the same source hits every procedure and produces bit-identical
// estimates, under every engine × plan combination.
func TestCacheWarmLoadBitIdentical(t *testing.T) {
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM, interp.EngineVMBatch} {
		for _, plan := range []Strategy{StrategySarkar, StrategyBallLarus} {
			t.Run(eng.String()+"/"+plan.String(), func(t *testing.T) {
				store := openStore(t)
				opts := LoadOptions{Cache: store, Engine: eng, Plan: plan}

				missBefore := metric("artifact.miss")
				cold, err := LoadOpts(cacheSrc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := metric("artifact.miss") - missBefore; got != 2 {
					t.Fatalf("cold load: %d misses, want 2", got)
				}
				coldTime, coldVar := estimateAll(t, cold)

				hitBefore := metric("artifact.hit")
				warm, err := LoadOpts(cacheSrc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := metric("artifact.hit") - hitBefore; got != 2 {
					t.Fatalf("warm load: %d hits, want 2", got)
				}
				warmTime, warmVar := estimateAll(t, warm)
				if coldTime != warmTime || coldVar != warmVar {
					t.Fatalf("warm estimates differ: TIME %v vs %v, VAR %v vs %v",
						coldTime, warmTime, coldVar, warmVar)
				}

				// No-cache reference: the cache may not change results.
				ref, err := LoadOpts(cacheSrc, LoadOptions{Engine: eng, Plan: plan})
				if err != nil {
					t.Fatal(err)
				}
				refTime, refVar := estimateAll(t, ref)
				if refTime != warmTime || refVar != warmVar {
					t.Fatalf("cached estimates differ from uncached: TIME %v vs %v, VAR %v vs %v",
						refTime, warmTime, refVar, warmVar)
				}
			})
		}
	}
}

// TestCacheIncrementalOneMiss is the golden incremental scenario: edit one
// procedure's body in a two-procedure program and reload — exactly the
// edited procedure misses, the other hits.
func TestCacheIncrementalOneMiss(t *testing.T) {
	store := openStore(t)
	opts := LoadOptions{Cache: store, Engine: interp.EngineVM, Plan: StrategySarkar}
	if _, err := LoadOpts(cacheSrc, opts); err != nil {
		t.Fatal(err)
	}

	edited := strings.Replace(cacheSrc, "S = S + 0.25", "S = S + 0.5", 1)
	hitBefore, missBefore := metric("artifact.hit"), metric("artifact.miss")
	p, err := LoadOpts(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := metric("artifact.miss") - missBefore; got != 1 {
		t.Fatalf("edited reload: %d misses, want exactly 1 (the edited procedure)", got)
	}
	if got := metric("artifact.hit") - hitBefore; got != 1 {
		t.Fatalf("edited reload: %d hits, want exactly 1 (the untouched procedure)", got)
	}
	if p.cache == nil || !p.cache.missed["CSUB"] || p.cache.missed["CMAIN"] {
		t.Fatalf("miss attribution wrong: %v", p.cache.missed)
	}
	ref, err := LoadOpts(edited, LoadOptions{Engine: interp.EngineVM, Plan: StrategySarkar})
	if err != nil {
		t.Fatal(err)
	}
	gotTime, gotVar := estimateAll(t, p)
	refTime, refVar := estimateAll(t, ref)
	if gotTime != refTime || gotVar != refVar {
		t.Fatalf("edited reload estimates differ from uncached: TIME %v vs %v, VAR %v vs %v",
			gotTime, refTime, gotVar, refVar)
	}

	// The edited program's artifacts were saved; reloading it hits fully.
	hitBefore = metric("artifact.hit")
	if _, err := LoadOpts(edited, opts); err != nil {
		t.Fatal(err)
	}
	if got := metric("artifact.hit") - hitBefore; got != 2 {
		t.Fatalf("re-reload: %d hits, want 2", got)
	}
}

// TestCacheBlobsIndependentOfEngineAndPlan: a blob holds only what every
// engine and counter strategy share, so loading the same program under
// (vm-batch, ball-larus) and under (tree, sarkar) stores byte-identical
// blobs for every procedure.
func TestCacheBlobsIndependentOfEngineAndPlan(t *testing.T) {
	type config struct {
		eng  interp.Engine
		plan Strategy
	}
	blobs := func(c config) map[string][]byte {
		store := openStore(t)
		p, err := LoadOpts(cacheSrc, LoadOptions{Cache: store, Engine: c.eng, Plan: c.plan})
		if err != nil {
			t.Fatal(err)
		}
		link := artifact.LinkHash(p.Prog)
		out := make(map[string][]byte)
		for name, proc := range p.Res.Procs {
			key := artifact.ProcKey(artifact.UnitHash(proc.Unit), link, engineKeyPart(c.eng), c.plan.String())
			if out[name] = store.Get(key); out[name] == nil {
				t.Fatalf("%v/%v: no blob stored for %s", c.eng, c.plan, name)
			}
		}
		return out
	}
	a := blobs(config{interp.EngineVMBatch, StrategyBallLarus})
	b := blobs(config{interp.EngineTree, StrategySarkar})
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: blob differs across engine/plan (%d vs %d bytes)", name, len(a[name]), len(b[name]))
		}
	}
}

// TestCacheCorruptionIsAMiss: flipping bits in (or truncating) a stored
// blob silently re-derives the procedure with identical results.
func TestCacheCorruptionIsAMiss(t *testing.T) {
	store := openStore(t)
	opts := LoadOptions{Cache: store, Engine: interp.EngineVM, Plan: StrategyBallLarus}
	cold, err := LoadOpts(cacheSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	coldTime, coldVar := estimateAll(t, cold)

	var files []string
	err = filepath.Walk(store.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".art") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) != 2 {
		t.Fatalf("want 2 cache files, got %d (%v)", len(files), err)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[1], int64(len(blob)/3)); err != nil {
		t.Fatal(err)
	}

	rejBefore := metric("artifact.reject")
	warm, err := LoadOpts(cacheSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := metric("artifact.reject") - rejBefore; got != 2 {
		t.Fatalf("%d rejects, want 2", got)
	}
	warmTime, warmVar := estimateAll(t, warm)
	if coldTime != warmTime || coldVar != warmVar {
		t.Fatalf("post-corruption estimates differ: TIME %v vs %v", coldTime, warmTime)
	}
}

// TestCacheConcurrentWriters: many pipelines populating one cache
// directory concurrently (the multi-CLI / service-pool scenario) never
// corrupt it — every load, concurrent or after, produces identical
// estimates. Run under -race by tier-1.
func TestCacheConcurrentWriters(t *testing.T) {
	store := openStore(t)
	opts := LoadOptions{Cache: store, Engine: interp.EngineVM, Plan: StrategyBallLarus}
	ref, err := LoadOpts(cacheSrc, LoadOptions{Engine: interp.EngineVM, Plan: StrategyBallLarus})
	if err != nil {
		t.Fatal(err)
	}
	refTime, refVar := estimateAll(t, ref)

	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	times := make([]float64, writers)
	vars := make([]float64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := LoadOpts(cacheSrc, opts)
			if err != nil {
				errs[w] = err
				return
			}
			est, err := p.Estimate(cost.Optimized, Options{}, 1, 2, 3)
			if err != nil {
				errs[w] = err
				return
			}
			times[w], vars[w] = est.Main.Time, est.Main.Var
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
		if times[w] != refTime || vars[w] != refVar {
			t.Fatalf("writer %d: TIME %v VAR %v, want %v %v", w, times[w], vars[w], refTime, refVar)
		}
	}
	// And a warm follow-up load still works and matches.
	warm, err := LoadOpts(cacheSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmTime, warmVar := estimateAll(t, warm)
	if warmTime != refTime || warmVar != refVar {
		t.Fatalf("post-race warm load differs: TIME %v vs %v", warmTime, refTime)
	}
}

// TestOpenBadDir: a path that exists as a file is rejected with a clear
// error instead of silently running uncached.
func TestOpenBadDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Open(f); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("want 'not a directory' error, got %v", err)
	}
	if _, err := artifact.Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
