package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/paperex"
)

// buildCmds compiles every command once into a shared temp dir.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"figures", "table1", "ptranc", "profrun", "estimate", "ptranlint", "oracle", "ptrand"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, msg)
		}
	}
	return dir
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCmds(t)
	src := filepath.Join(dir, "example.f")
	if err := os.WriteFile(src, []byte(paperex.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "profile.json")

	t.Run("figures", func(t *testing.T) {
		out := runCmd(t, filepath.Join(dir, "figures"), "-fig", "3")
		for _, want := range []string{"TIME(START)    = 920", "STD_DEV(START) = 300"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in:\n%s", want, out)
			}
		}
		dot := runCmd(t, filepath.Join(dir, "figures"), "-fig", "1", "-dot")
		if !strings.Contains(dot, "digraph") {
			t.Errorf("dot output missing digraph:\n%s", dot)
		}
	})

	t.Run("table1", func(t *testing.T) {
		out := runCmd(t, filepath.Join(dir, "table1"), "-loopsn", "20", "-simplen", "8", "-cycles", "1")
		for _, want := range []string{"LOOPS", "SIMPLE", "opt-on", "Counter ablation"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in:\n%s", want, out)
			}
		}
	})

	t.Run("ptranc", func(t *testing.T) {
		out := runCmd(t, filepath.Join(dir, "ptranc"), "-src", src, "-dump", "fcdg")
		if !strings.Contains(out, "procedure EXMPL") || !strings.Contains(out, "fcdg root=") {
			t.Errorf("unexpected output:\n%s", out)
		}
		out = runCmd(t, filepath.Join(dir, "ptranc"), "-src", src, "-dump", "plan", "-proc", "EXMPL")
		if !strings.Contains(out, "smart counters") {
			t.Errorf("plan output:\n%s", out)
		}
	})

	t.Run("profrun-then-estimate", func(t *testing.T) {
		out := runCmd(t, filepath.Join(dir, "profrun"), "-src", src, "-db", db, "-seeds", "1,2")
		if !strings.Contains(out, "2 run(s) merged") {
			t.Errorf("profrun output:\n%s", out)
		}
		// Merge again: runs accumulate.
		out = runCmd(t, filepath.Join(dir, "profrun"), "-src", src, "-db", db, "-seeds", "3")
		if !strings.Contains(out, "now 3 runs total") {
			t.Errorf("merge output:\n%s", out)
		}
		out = runCmd(t, filepath.Join(dir, "estimate"), "-src", src, "-db", db, "-model", "unit")
		if !strings.Contains(out, "program: TIME =") {
			t.Errorf("estimate output:\n%s", out)
		}
		flat := runCmd(t, filepath.Join(dir, "estimate"), "-src", src, "-db", db, "-model", "opt-off", "-flat")
		if !strings.Contains(flat, "%time") || !strings.Contains(flat, "FOO") {
			t.Errorf("flat output:\n%s", flat)
		}
	})

	t.Run("ptranlint", func(t *testing.T) {
		bin := filepath.Join(dir, "ptranlint")
		// The paper's Figure 1 example is checker-clean: exit 0.
		out := runCmd(t, bin, src)
		if !strings.Contains(out, "clean") {
			t.Errorf("figure-1 lint output:\n%s", out)
		}
		// The bad fixture carries warnings: exit 0 plain, 1 under -Werror.
		bad := "internal/check/testdata/bad.f"
		out = runCmd(t, bin, "-json", bad)
		for _, want := range []string{`"tool": "ptranlint"`, `"pass": "reducible"`, "DO loop never executes", "constant .FALSE."} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in -json output:\n%s", want, out)
			}
		}
		if msg, err := exec.Command(bin, "-Werror", bad).CombinedOutput(); err == nil {
			t.Errorf("-Werror on bad.f must exit non-zero:\n%s", msg)
		}
		// Syntax errors come back as parse diagnostics, not bare failures.
		broken := filepath.Join(dir, "broken.f")
		if err := os.WriteFile(broken, []byte("      PROGRAM P\n      X = \n      END\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		msg, err := exec.Command(bin, "-json", broken).CombinedOutput()
		if err == nil || !strings.Contains(string(msg), `"pass": "parse"`) {
			t.Errorf("broken source: err=%v output:\n%s", err, msg)
		}
	})

	t.Run("ptranlint-exit-codes", func(t *testing.T) {
		bin := filepath.Join(dir, "ptranlint")
		broken := filepath.Join(dir, "broken2.f")
		if err := os.WriteFile(broken, []byte("      PROGRAM P\n      X = \n      END\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		// Every failure class maps to a documented status: 0 = no
		// error-severity findings, 1 = findings fail the run, 2 = usage or
		// internal errors. -Werror must promote warnings from any pass.
		cases := []struct {
			name string
			args []string
			want int
		}{
			{"clean", []string{src}, 0},
			{"clean-werror", []string{"-Werror", src}, 0},
			{"clean-dataflow", []string{"-dataflow", src}, 0},
			{"warnings", []string{"internal/check/testdata/bad.f"}, 0},
			{"warnings-werror", []string{"-Werror", "internal/check/testdata/bad.f"}, 1},
			{"warnings-werror-json", []string{"-Werror", "-json", "internal/check/testdata/bad.f"}, 1},
			{"flow-lints-only-werror", []string{"-Werror", "-passes", "deadcode,deadstore,defassign", "internal/check/testdata/bad.f"}, 1},
			{"parse-error", []string{broken}, 1},
			{"parse-error-werror", []string{"-Werror", broken}, 1},
			{"missing-file", []string{filepath.Join(dir, "no-such.f")}, 2},
			{"no-args", nil, 2},
			{"two-positional", []string{src, src}, 2},
			{"bad-flag", []string{"-definitely-not-a-flag", src}, 2},
			{"unknown-pass", []string{"-passes", "nope", src}, 2},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				out, err := exec.Command(bin, tc.args...).CombinedOutput()
				got := 0
				if ee, ok := err.(*exec.ExitError); ok {
					got = ee.ExitCode()
				} else if err != nil {
					t.Fatalf("run: %v\n%s", err, out)
				}
				if got != tc.want {
					t.Errorf("ptranlint %v: exit %d, want %d\n%s", tc.args, got, tc.want, out)
				}
			})
		}
	})

	t.Run("ptranlint-dataflow", func(t *testing.T) {
		bin := filepath.Join(dir, "ptranlint")
		out := runCmd(t, bin, "-dataflow", "examples/loops.f")
		for _, want := range []string{"dataflow DOTPRD", "const trips", "DO test"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in -dataflow output:\n%s", want, out)
			}
		}
		jout := runCmd(t, bin, "-dataflow", "-json", "examples/loops.f")
		var doc struct {
			Dataflow []struct {
				Proc  string `json:"proc"`
				Stats struct {
					Nodes      int `json:"Nodes"`
					ConstTrips int `json:"ConstTrips"`
				} `json:"stats"`
				Trips []string `json:"const_trips"`
			} `json:"dataflow"`
		}
		if err := json.Unmarshal([]byte(jout), &doc); err != nil {
			t.Fatalf("-dataflow -json: %v\n%s", err, jout)
		}
		if len(doc.Dataflow) == 0 || doc.Dataflow[0].Proc != "DOTPRD" || doc.Dataflow[0].Stats.ConstTrips != 2 {
			t.Errorf("unexpected dataflow document: %+v", doc.Dataflow)
		}
	})

	t.Run("ptranlint-explain-plan", func(t *testing.T) {
		bin := filepath.Join(dir, "ptranlint")
		out := runCmd(t, bin, "-explain-plan", "examples/figure1.f")
		want, err := os.ReadFile("testdata/explain_plan_figure1.golden")
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("-explain-plan output differs from testdata/explain_plan_figure1.golden:\n got:\n%s\nwant:\n%s", out, want)
		}
		jout := runCmd(t, bin, "-explain-plan", "-json", "examples/figure1.f")
		var doc struct {
			Plans []struct {
				Proc        string   `json:"proc"`
				Counters    []string `json:"counters"`
				Derivations []struct {
					Rule    string   `json:"rule"`
					Derives []string `json:"derives"`
					Inputs  []string `json:"inputs"`
				} `json:"derivations"`
				RecoverSteps int `json:"recover_steps"`
			} `json:"plans"`
		}
		if err := json.Unmarshal([]byte(jout), &doc); err != nil {
			t.Fatalf("-explain-plan -json: %v\n%s", err, jout)
		}
		// The JSON document carries the same plan as the text report.
		var lines []string
		for _, pe := range doc.Plans {
			lines = append(lines, fmt.Sprintf("plan %s: %d counters, %d derivations, %d recovery steps",
				pe.Proc, len(pe.Counters), len(pe.Derivations), pe.RecoverSteps))
			for _, d := range pe.Derivations {
				if len(d.Derives) == 0 || len(d.Inputs) == 0 || d.Rule == "" {
					t.Errorf("%s: incomplete derivation %+v", pe.Proc, d)
				}
			}
		}
		for _, l := range lines {
			if !strings.Contains(out, l) {
				t.Errorf("JSON plan %q not in the text report:\n%s", l, out)
			}
		}
		if len(doc.Plans) != 2 {
			t.Errorf("plans for %d procedures, want 2 (EXMPL, FOO)", len(doc.Plans))
		}
	})

	t.Run("check-flag", func(t *testing.T) {
		out := runCmd(t, filepath.Join(dir, "ptranc"), "-src", src, "-check", "-dump", "plan", "-proc", "EXMPL")
		if !strings.Contains(out, "smart counters") {
			t.Errorf("ptranc -check output:\n%s", out)
		}
	})

	t.Run("trace-flag", func(t *testing.T) {
		tracePath := filepath.Join(dir, "trace.json")
		runCmd(t, filepath.Join(dir, "ptranc"), "-src", src, "-dump", "plan", "-trace", tracePath)
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Tool  string `json:"tool"`
			Spans []struct {
				Name   string  `json:"name"`
				WallMs float64 `json:"wall_ms"`
				Count  int64   `json:"count"`
			} `json:"spans"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace JSON: %v\n%s", err, raw)
		}
		if doc.Tool != "ptranc" {
			t.Errorf("tool = %q, want ptranc", doc.Tool)
		}
		phases := make(map[string]bool)
		for _, sp := range doc.Spans {
			phases[sp.Name] = true
			if sp.Count <= 0 {
				t.Errorf("span %q has count %d", sp.Name, sp.Count)
			}
		}
		for _, want := range []string{"parse", "lower", "interval", "ecfg", "cdg", "fcdg", "analyze"} {
			if !phases[want] {
				t.Errorf("missing span %q in %v", want, phases)
			}
		}
		if doc.Metrics["pipeline.procs"] <= 0 {
			t.Errorf("metrics missing pipeline.procs: %v", doc.Metrics)
		}
		if doc.Metrics["process.peak_rss_bytes"] <= 0 {
			t.Errorf("metrics missing process.peak_rss_bytes: %v", doc.Metrics)
		}

		metricsPath := filepath.Join(dir, "metrics.json")
		runCmd(t, filepath.Join(dir, "profrun"), "-src", src, "-db",
			filepath.Join(dir, "trace-profile.json"), "-seeds", "1", "-metrics", metricsPath)
		raw, err = os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		var mdoc struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &mdoc); err != nil {
			t.Fatalf("metrics JSON: %v\n%s", err, raw)
		}
		for _, name := range []string{"pipeline.counters", "pipeline.plan_trials", "pipeline.recover_steps"} {
			if mdoc.Metrics[name] <= 0 {
				t.Errorf("profrun metrics missing %s: %v", name, mdoc.Metrics)
			}
		}
	})

	t.Run("hot-paths", func(t *testing.T) {
		bin := filepath.Join(dir, "ptranlint")
		out := runCmd(t, bin, "-hot-paths", "3", src)
		if !strings.Contains(out, "hot:") || !strings.Contains(out, "path ") {
			t.Errorf("text hot-path report missing:\n%s", out)
		}
		out = runCmd(t, bin, "-hot-paths", "3", "-json", src)
		var doc struct {
			HotPaths []struct {
				Proc  string `json:"proc"`
				Count int64  `json:"count"`
				Nodes []int  `json:"nodes"`
			} `json:"hot_paths"`
		}
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("hot-paths JSON: %v\n%s", err, out)
		}
		if len(doc.HotPaths) == 0 {
			t.Fatalf("no hot_paths in document:\n%s", out)
		}
		for _, h := range doc.HotPaths {
			if h.Proc == "" || h.Count <= 0 || len(h.Nodes) == 0 {
				t.Errorf("malformed hot path %+v", h)
			}
		}
	})

	// Every tool that takes -engine/-plan must reject unknown values with
	// the named sentinel message, and their help text must agree on the
	// accepted values — the flag set is one strategy surface, not N.
	t.Run("flag-rejection", func(t *testing.T) {
		engineTools := map[string][]string{
			"profrun": {"-src", src, "-db", db, "-engine", "bogus"},
			"oracle":  {"-seeds", "1", "-engine", "bogus"},
		}
		for name, args := range engineTools {
			msg, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
			if err == nil {
				t.Errorf("%s -engine bogus must fail:\n%s", name, msg)
				continue
			}
			if !strings.Contains(string(msg), "unknown engine (want tree|vm|vm-batch)") {
				t.Errorf("%s: engine error must name the accepted values:\n%s", name, msg)
			}
		}
		planTools := map[string][]string{
			"profrun":  {"-src", src, "-db", db, "-plan", "bogus"},
			"estimate": {"-src", src, "-db", db, "-plan", "bogus"},
			"oracle":   {"-seeds", "1", "-plan", "bogus"},
		}
		for name, args := range planTools {
			msg, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
			if err == nil {
				t.Errorf("%s -plan bogus must fail:\n%s", name, msg)
				continue
			}
			if !strings.Contains(string(msg), "unknown plan (want sarkar|ball-larus)") {
				t.Errorf("%s: plan error must name the accepted values:\n%s", name, msg)
			}
		}
		for _, name := range []string{"profrun", "oracle"} {
			msg, _ := exec.Command(filepath.Join(dir, name), "-h").CombinedOutput()
			if !strings.Contains(string(msg), "tree|vm|vm-batch") {
				t.Errorf("%s -h engine help drifted:\n%s", name, msg)
			}
		}
	})

	t.Run("cache-dir", func(t *testing.T) {
		readMetrics := func(t *testing.T, path string) map[string]float64 {
			t.Helper()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Metrics map[string]float64 `json:"metrics"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("metrics JSON: %v\n%s", err, raw)
			}
			return doc.Metrics
		}
		cacheDir := filepath.Join(dir, "artcache")
		cacheDB := filepath.Join(dir, "cache-profile.json")

		// Every tool advertises the shared flag.
		for _, name := range []string{"figures", "table1", "ptranc", "profrun", "estimate", "ptranlint", "oracle", "ptrand"} {
			msg, _ := exec.Command(filepath.Join(dir, name), "-h").CombinedOutput()
			if !strings.Contains(string(msg), "cache-dir") {
				t.Errorf("%s -h does not document -cache-dir:\n%s", name, msg)
			}
		}

		// Cold run populates the cache (misses), warm run hits everything.
		m1 := filepath.Join(dir, "cache-m1.json")
		runCmd(t, filepath.Join(dir, "profrun"), "-src", src, "-db", cacheDB, "-seeds", "1", "-cache-dir", cacheDir, "-metrics", m1)
		if mm := readMetrics(t, m1); mm["artifact.miss"] <= 0 || mm["artifact.hit"] != 0 {
			t.Errorf("cold run metrics: %v", mm)
		}
		m2 := filepath.Join(dir, "cache-m2.json")
		runCmd(t, filepath.Join(dir, "profrun"), "-src", src, "-db", cacheDB, "-seeds", "2", "-cache-dir", cacheDir, "-metrics", m2)
		if mm := readMetrics(t, m2); mm["artifact.hit"] <= 0 || mm["artifact.miss"] != 0 {
			t.Errorf("warm run metrics: %v", mm)
		}

		// REPRO_CACHE_DIR is honored without the flag (estimate shares the
		// cache profrun populated: same source, engine, and plan).
		m3 := filepath.Join(dir, "cache-m3.json")
		cmd := exec.Command(filepath.Join(dir, "estimate"), "-src", src, "-db", cacheDB, "-model", "unit", "-metrics", m3)
		cmd.Env = append(os.Environ(), "REPRO_CACHE_DIR="+cacheDir)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("estimate under REPRO_CACHE_DIR: %v\n%s", err, msg)
		}
		if mm := readMetrics(t, m3); mm["artifact.hit"] <= 0 || mm["artifact.miss"] != 0 {
			t.Errorf("REPRO_CACHE_DIR run metrics: %v", mm)
		}

		// A cache path that is not a directory is a clear error, not a
		// silent fall-through to uncached mode.
		for name, args := range map[string][]string{
			"ptranc":   {"-src", src, "-cache-dir", src},
			"estimate": {"-src", src, "-db", cacheDB, "-cache-dir", src},
			"oracle":   {"-seeds", "1", "-cache-dir", src},
		} {
			msg, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
			if err == nil {
				t.Errorf("%s with a file as -cache-dir must fail:\n%s", name, msg)
				continue
			}
			if !strings.Contains(string(msg), "not a directory") {
				t.Errorf("%s: bad-dir error must say so:\n%s", name, msg)
			}
		}
	})

	t.Run("error-paths", func(t *testing.T) {
		if _, err := exec.Command(filepath.Join(dir, "estimate"), "-src", src, "-db", "/nonexistent.json").CombinedOutput(); err == nil {
			t.Error("estimate with missing db must fail")
		}
		if _, err := exec.Command(filepath.Join(dir, "ptranc")).CombinedOutput(); err == nil {
			t.Error("ptranc without -src must fail")
		}
		if _, err := exec.Command(filepath.Join(dir, "figures"), "-fig", "9").CombinedOutput(); err == nil {
			t.Error("figures -fig 9 must fail")
		}
	})
}
