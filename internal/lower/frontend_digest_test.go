package lower

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/progen"
	"repro/internal/simplecfd"
)

var updateFrontEnd = flag.Bool("update", false, "rewrite testdata/frontend_digests.golden")

const frontEndGolden = "testdata/frontend_digests.golden"

// frontEndSources is the front-end digest corpus: the shipped examples,
// the first 20 cold-large programs, the Table 1 programs at their
// benchmark sizes and the FuzzParsePipeline seed corpus (its f.Add seeds
// and its committed testdata inputs, some of which the parser rejects).
func frontEndSources(t testing.TB) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	files, err := filepath.Glob("../../examples/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sources: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs["examples/"+filepath.Base(f)] = string(b)
	}
	for j, src := range corpus.ColdLarge(20) {
		srcs[fmt.Sprintf("cold/%02d", j)] = src
	}
	srcs["livermore"] = livermore.Source(100, 1)
	srcs["simplecfd"] = simplecfd.Source(100, 10)
	for i, src := range []string{
		"      PROGRAM T\n      X1 = 1.0\n      PRINT *, X1\n      END\n",
		"      PROGRAM T\n   10 IF (RAND() .LT. 0.5) GOTO 10\n      END\n",
		"      PROGRAM T\n      INTEGER I\n      DO 10 I = 5, 1\n      PRINT *, I\n   10 CONTINUE\n      END\n",
		progen.Generate(1, 4, 2),
		"",
		"GARBAGE",
	} {
		srcs[fmt.Sprintf("fuzz/seed#%d", i)] = src
	}
	seeds, err := filepath.Glob("../oracle/testdata/fuzz/FuzzParsePipeline/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzParsePipeline corpus: %v", err)
	}
	for _, f := range seeds {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src, err := fuzzString(string(b))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		srcs["fuzz/"+filepath.Base(f)] = src
	}
	return srcs
}

// fuzzString decodes a one-string "go test fuzz v1" corpus file.
func fuzzString(file string) (string, error) {
	lines := strings.Split(strings.TrimSpace(file), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
		return "", fmt.Errorf("not a one-string fuzz corpus file")
	}
	return strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
}

// frontEndDigests returns one "source name part sha256" line per unit's
// lang.DumpUnit ("ast"), per lowered procedure's cfg.Graph.String()
// ("cfg") and per rejected source's error text ("error"), sorted.
func frontEndDigests(t testing.TB) []string {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	var lines []string
	for name, src := range frontEndSources(t) {
		prog, err := lang.Parse(src)
		var res *Result
		if err == nil {
			res, err = Lower(prog)
		}
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s - error %s", name, sum(err.Error())))
			continue
		}
		for _, u := range prog.Units {
			lines = append(lines, fmt.Sprintf("%s %s ast %s", name, u.Name, sum(lang.DumpUnit(u))))
			lines = append(lines, fmt.Sprintf("%s %s cfg %s", name, u.Name, sum(res.Procs[u.Name].G.String())))
		}
	}
	sort.Strings(lines)
	return lines
}

// TestFrontEndDigests pins the parsed AST (statement positions included)
// and the lowered CFG (node labels included) of every unit of the
// front-end corpus, byte for byte, plus the diagnostics of the sources the
// front end rejects. Run with -update to rewrite the golden after an
// intended change.
func TestFrontEndDigests(t *testing.T) {
	got := frontEndDigests(t)
	if *updateFrontEnd {
		if err := os.MkdirAll(filepath.Dir(frontEndGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontEndGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(frontEndGolden)
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
		t.Fatalf("%d front-end digests, golden has %d", len(got), len(want))
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
		t.Fatalf("%d of %d front-end digests differ", bad, len(got))
	}
}
