package profiler

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/wire"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/plan_digests.golden")

const digestGolden = "testdata/plan_digests.golden"

// digestPlanners are the placements whose encoded plans are pinned.
var digestPlanners = []struct {
	name string
	plan func(*analysis.Proc) (*Plan, error)
}{
	{"flow", PlanFlow},
	{"smart", PlanSmart},
	{"level0", func(a *analysis.Proc) (*Plan, error) { return PlanLevel(a, LevelConditions) }},
	{"level1", func(a *analysis.Proc) (*Plan, error) { return PlanLevel(a, LevelBranches) }},
	{"level2", func(a *analysis.Proc) (*Plan, error) { return PlanLevel(a, LevelFull) }},
}

// planDigests returns one "source proc planner sha256" line per procedure
// and planner, sorted.
func planDigests(t testing.TB) []string {
	var lines []string
	for name, src := range corpus.Digest(t) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for proc, a := range ap.Procs {
			for _, pl := range digestPlanners {
				plan, err := pl.plan(a)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, proc, pl.name, err)
				}
				var w wire.Writer
				plan.Encode(&w)
				sum := sha256.Sum256(w.Bytes())
				lines = append(lines, fmt.Sprintf("%s %s %s %s", name, proc, pl.name, hex.EncodeToString(sum[:])))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// TestPlanDigests pins Plan.Encode, byte for byte, for every procedure of
// the digest corpus under every placement. Any change to the greedy trial
// order or to an accept/reject decision of the planner shows here. Run with
// -update to rewrite the golden after an intended change of placements
// (which also needs an artifact.FormatVersion bump).
func TestPlanDigests(t *testing.T) {
	got := planDigests(t)
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d plan digests, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d plan digests differ", bad, len(got))
	}
}
