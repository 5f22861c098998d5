package database

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/paperex"
	"repro/internal/profiler"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := []cdg.Condition{
		{Node: 1, Label: cfg.Uncond},
		{Node: 42, Label: cfg.True},
		{Node: 7, Label: cfg.PseudoLoop},
		{Node: 9, Label: cfg.Label("G3")},
	}
	for _, c := range cases {
		got, err := ParseKey(Key(c))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got != c {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	for _, bad := range []string{"", "x", ":T", "5:", "-1:T", "abc:T"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) should fail", bad)
		}
	}
}

func TestMergeAccumulatesAndSurvivesRoundTrip(t *testing.T) {
	p, err := core.Load(paperex.Source)
	if err != nil {
		t.Fatal(err)
	}
	db := New("paperex")
	for seed := uint64(1); seed <= 3; seed++ {
		profile, _, err := p.Profile(interp.Options{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		db.Merge(profile, 1, seed)
	}
	if db.Runs != 3 || len(db.Seeds) != 3 {
		t.Fatalf("Runs=%d Seeds=%v", db.Runs, db.Seeds)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := loaded.ProcTotals()
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.ProcTotals()
	if err != nil {
		t.Fatal(err)
	}
	for proc, totals := range b {
		for c, v := range totals {
			if math.Abs(a[proc][c]-v) > 1e-12 {
				t.Errorf("%s %v: %g != %g after round trip", proc, c, a[proc][c], v)
			}
		}
	}

	// Estimating from the merged database equals estimating from the
	// in-memory accumulated profile (the deterministic program runs
	// identically under every seed, so totals are 3x the single run).
	est, err := core.EstimateProgram(p.An, a, map[string]cost.Table{"EXMPL": exCosts(p), "FOO": nil}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-paperex.PaperTime) > 1e-9 {
		t.Errorf("TIME from database = %g, want %g", est.Main.Time, paperex.PaperTime)
	}
}

func exCosts(p *core.Pipeline) cost.Table {
	costs := cost.NewTable(p.An.Procs["EXMPL"].P.G.MaxID())
	for id, s := range p.An.Procs["EXMPL"].P.Stmt {
		switch s.Text()[0:2] {
		case "IF":
			costs[id] = 1
		case "CA":
			costs[id] = 100
		}
	}
	return costs
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/path.json"); err == nil {
		t.Error("missing file should error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("corrupt JSON should error")
	}
	badKey := filepath.Join(dir, "badkey.json")
	os.WriteFile(badKey, []byte(`{"program":"x","runs":1,"totals":{"P":{"zap":1}}}`), 0o644)
	if _, err := Load(badKey); err == nil {
		t.Error("bad condition key should error at load")
	}
}

func TestLoopVarRoundTrip(t *testing.T) {
	db := New("x")
	// Per-entry counts {1, 2, 3} and {0}: ΣF = 6, ΣF² = 14 over 4 entries.
	db.MergeLoopMoments(map[string]map[cdg.Condition]profiler.LoopMoments{
		"P": {{Node: 3, Label: cfg.Uncond}: {Entries: 3, Sum: 6, SumSq: 14}},
	})
	db.MergeLoopMoments(map[string]map[cdg.Condition]profiler.LoopMoments{
		"P": {{Node: 3, Label: cfg.Uncond}: {Entries: 1}},
	})
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := loaded.LoopVariance()
	if err != nil {
		t.Fatal(err)
	}
	if got := lv["P"][cdg.Condition{Node: 3, Label: cfg.Uncond}]; got != 1.25 {
		t.Errorf("loop var = %g, want 1.25", got)
	}
}

// TestLoopVarPoolsSeeds: a DO loop runs 2 or 10 times depending on RAND(),
// and seeds 1 and 2 take one trip count each. Merging the two single-seed
// variance runs gives the variance of the pooled per-entry header counts
// {3, 11}, which is 16, not the last seed's 0.
func TestLoopVarPoolsSeeds(t *testing.T) {
	src := `      PROGRAM LVS
      INTEGER I, N, S
      S = 0
      N = 2
      IF (RAND() .LT. 0.5) N = 10
      DO 10 I = 1, N
         S = S + I
   10 CONTINUE
      END
`
	p, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	db := New("lvs")
	for _, seed := range []uint64{1, 2} {
		moments, err := profiler.VarianceRun(p.An, interp.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		db.MergeLoopMoments(moments)
	}
	lv, err := db.LoopVariance()
	if err != nil {
		t.Fatal(err)
	}
	if len(lv["LVS"]) != 1 {
		t.Fatalf("loop variances %v, want one loop", lv)
	}
	for c, v := range lv["LVS"] {
		if v != 16 {
			t.Errorf("VAR(FREQ%v) = %g over seeds 1 and 2, want 16", c, v)
		}
	}
}
