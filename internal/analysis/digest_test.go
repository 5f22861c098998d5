package analysis

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

	"repro/internal/cdg"
	"repro/internal/corpus"
	"repro/internal/ecfg"
	"repro/internal/interval"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/wire"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/analysis_digests.golden")

const digestGolden = "testdata/analysis_digests.golden"

// digestParts are the per-procedure structures whose encodings are
// pinned: the interval structure of the CFG, the ECFG (graph, preheader
// and postexit tables, and its own interval structure), the FCDG, the
// FCDG's topological order and the dataflow facts.
var digestParts = []struct {
	name   string
	encode func(*Proc, *wire.Writer)
}{
	{"interval", func(a *Proc, w *wire.Writer) { a.Intervals.Encode(w) }},
	{"ecfg", func(a *Proc, w *wire.Writer) { a.Ext.Encode(w) }},
	{"fcdg", func(a *Proc, w *wire.Writer) { a.FCDG.Encode(w) }},
	{"topo", func(a *Proc, w *wire.Writer) {
		topo := a.FCDG.Topo()
		w.Uvarint(uint64(len(topo)))
		for _, n := range topo {
			w.Varint(int64(n))
		}
	}},
	{"dataflow", func(a *Proc, w *wire.Writer) { a.Flow.Encode(w) }},
}

// analysisDigests returns one "source proc part sha256" line per procedure
// of the digest corpus and pinned part, sorted. Every procedure is also
// round-tripped through the codecs: the decoded structures must re-encode
// to the same bytes.
func analysisDigests(t testing.TB) []string {
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
		ap, err := AnalyzeProgram(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for proc, a := range ap.Procs {
			re := roundTrip(t, a)
			for _, part := range digestParts {
				var w, rw wire.Writer
				part.encode(a, &w)
				part.encode(re, &rw)
				if string(w.Bytes()) != string(rw.Bytes()) {
					t.Errorf("%s %s %s: decoded structure re-encodes differently", name, proc, part.name)
				}
				sum := sha256.Sum256(w.Bytes())
				lines = append(lines, fmt.Sprintf("%s %s %s %s", name, proc, part.name, hex.EncodeToString(sum[:])))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// roundTrip encodes a's structural analyses and decodes them against the
// same lowered procedure, the way the artifact cache does.
func roundTrip(t testing.TB, a *Proc) *Proc {
	var w wire.Writer
	a.Intervals.Encode(&w)
	a.Ext.Encode(&w)
	a.FCDG.Encode(&w)
	r := wire.NewReader(w.Bytes())
	out := &Proc{P: a.P, Flow: a.Flow}
	out.Intervals = interval.Decode(r, a.P.G)
	out.Ext = ecfg.Decode(r, a.P.G)
	out.FCDG = cdg.Decode(r, out.Ext)
	if err := r.Err(); err != nil {
		t.Fatalf("%s: decode: %v", a.P.G.Name, err)
	}
	return out
}

// TestAnalysisDigests pins the encoded interval, ECFG, FCDG, topo and
// dataflow structures, byte for byte, for every procedure of the digest
// corpus. The encodings are the on-disk artifact format, so a mismatch is
// either a behaviour change of the middle end or a format change (which
// needs an artifact.FormatVersion bump). Run with -update to rewrite the
// golden after an intended change.
func TestAnalysisDigests(t *testing.T) {
	got := analysisDigests(t)
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
		t.Fatalf("%d analysis digests, golden has %d", len(got), len(want))
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
		t.Fatalf("%d of %d analysis digests differ", bad, len(got))
	}
}
