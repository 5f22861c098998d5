package artifact

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/profiler"
)

// fuzzSrc is a compact two-procedure program covering every section an
// artifact can carry: control flow rich enough for real analyses and
// counter plans, and a call.
const fuzzSrc = `      PROGRAM FZ
      INTEGER I, K
      REAL X, S
      S = 0.0
      DO 10 I = 1, 6
         X = RAND()
         IF (X .LT. 0.5) THEN
            CALL FSUB(S)
         ELSE
            S = S + X
         ENDIF
   10 CONTINUE
      K = INT(S)
      GOTO (20, 30), K + 1
   20 S = S + 1.0
   30 PRINT *, S
      END

      SUBROUTINE FSUB(S)
      REAL S
      INTEGER J
      DO 40 J = 1, 3
         S = S + 0.5
   40 CONTINUE
      RETURN
      END
`

// fuzzProcs lowers fuzzSrc once and returns the procedures decode targets
// attach to, plus one fully populated encoded blob per procedure.
func fuzzProcs(tb testing.TB) (map[string]*lower.Proc, map[string][]byte) {
	tb.Helper()
	prog, err := lang.Parse(fuzzSrc)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		tb.Fatal(err)
	}
	an, err := analysis.AnalyzeProgram(res)
	if err != nil {
		tb.Fatal(err)
	}
	plans, err := profiler.BuildPlans(an)
	if err != nil {
		tb.Fatal(err)
	}
	blobs := make(map[string][]byte, len(res.Procs))
	for name := range res.Procs {
		pa := &ProcArtifact{An: an.Procs[name], Sarkar: plans[name]}
		blobs[name] = pa.Encode()
	}
	return res.Procs, blobs
}

// FuzzArtifactDecode feeds arbitrary bytes to the blob decoder. Two
// properties must hold everywhere: DecodeProc never panics (it returns a
// typed error for anything but a pristine blob), and — because the header
// checksum would otherwise shield the section codecs from nearly every
// mutation — the same bytes are replayed through decodeSections directly,
// so every per-package codec faces arbitrary input too. A decode that
// somehow succeeds must re-encode and survive a second decode (accepted
// means well-formed, not merely unexploded).
func FuzzArtifactDecode(f *testing.F) {
	procs, blobs := fuzzProcs(f)
	for _, blob := range blobs {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0x20
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(magic)
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, proc := range procs {
			pa, err := DecodeProc(data, proc)
			if err == nil {
				blob2 := pa.Encode()
				if _, err := DecodeProc(blob2, proc); err != nil {
					t.Fatalf("%s: accepted blob re-encodes to a rejected one: %v", name, err)
				}
			} else if err.Error() == "" {
				t.Fatalf("%s: empty error message", name)
			}
			// Past-the-header replay: arbitrary bytes straight into the
			// section decoders.
			if pa, err := decodeSections(data, proc); err == nil {
				if pa.An == nil || pa.Sarkar == nil {
					t.Fatalf("%s: decodeSections accepted a blob without required sections", name)
				}
			}
		}
	})
}

// TestFuzzSeedsRejectOrRoundTrip replays the static seed shapes without
// the fuzzing engine, so plain `go test` keeps the harness honest.
func TestFuzzSeedsRejectOrRoundTrip(t *testing.T) {
	procs, blobs := fuzzProcs(t)
	for name, blob := range blobs {
		if _, err := DecodeProc(blob, procs[name]); err != nil {
			t.Fatalf("%s: pristine blob rejected: %v", name, err)
		}
		if _, err := DecodeProc(blob[:len(blob)/2], procs[name]); err == nil {
			t.Fatalf("%s: truncated blob accepted", name)
		}
	}
}
