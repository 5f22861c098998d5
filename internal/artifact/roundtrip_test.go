package artifact_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/profiler"
)

// src exercises every statement family the middle-end serializes: nested
// DO loops, a multi-arm IF with ELSE IF, a computed GOTO, an arithmetic
// IF, calls with scalar and array arguments, and PRINT.
const src = `      PROGRAM ART
      INTEGER I, K, N
      REAL X, S
      REAL A(10)
      N = 10
      S = 0.0
      DO 10 I = 1, N
         X = RAND()
         IF (X .LT. 0.3) THEN
            S = S + X*X
         ELSE IF (X .LT. 0.7) THEN
            CALL TWIST(A, I, S)
         ELSE
            S = S - X
         ENDIF
   10 CONTINUE
      K = INT(S) - INT(S)
      GOTO (20, 30), K + 1
   20 S = S + 1.0
   30 IF (S - 5.0) 40, 50, 50
   40 S = S * 2.0
   50 PRINT *, S
      END

      SUBROUTINE TWIST(A, I, S)
      REAL A(10), S
      INTEGER I, J
      DO 60 J = 1, 5
         A(I) = A(I) + S * 0.5
         S = S + A(I)
   60 CONTINUE
      RETURN
      END
`

type built struct {
	res   *lower.Result
	an    *analysis.Program
	plans profiler.Plans
}

func buildAll(t *testing.T) *built {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := profiler.BuildPlans(an)
	if err != nil {
		t.Fatal(err)
	}
	return &built{res: res, an: an, plans: plans}
}

func encodeProc(t *testing.T, b *built, name string) []byte {
	t.Helper()
	pa := &artifact.ProcArtifact{An: b.an.Procs[name], Sarkar: b.plans[name]}
	return pa.Encode()
}

// TestRoundTripBitStable: decode against a fresh lowering of the same
// source, re-encode, and require the bytes identical — the oracle
// invariant's cheap byte-level form, covering every codec at once.
func TestRoundTripBitStable(t *testing.T) {
	b := buildAll(t)
	p2, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := lower.Lower(p2)
	if err != nil {
		t.Fatal(err)
	}
	for name := range b.res.Procs {
		blob := encodeProc(t, b, name)
		pa, err := artifact.DecodeProc(blob, res2.Procs[name])
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if pa.An.P != res2.Procs[name] {
			t.Fatalf("%s: decoded analysis not attached to fresh lowering", name)
		}
		blob2 := pa.Encode()
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: re-encoded blob differs (%d vs %d bytes)", name, len(blob), len(blob2))
		}
	}
}

// TestDecodeRejectsMutations: truncations and bit flips at every offset
// produce a typed error, never a panic, and never a silently-accepted
// different artifact.
func TestDecodeRejectsMutations(t *testing.T) {
	b := buildAll(t)
	p2, _ := lang.Parse(src)
	res2, err := lower.Lower(p2)
	if err != nil {
		t.Fatal(err)
	}
	name := "TWIST"
	blob := encodeProc(t, b, name)
	proc := res2.Procs[name]
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := artifact.DecodeProc(blob[:cut], proc); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for off := 0; off < len(blob); off += 11 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := artifact.DecodeProc(mut, proc); err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
}

// TestVersionSkewRejected: a blob from any other format version is
// rejected before section decoding.
func TestVersionSkewRejected(t *testing.T) {
	b := buildAll(t)
	blob := encodeProc(t, b, "ART")
	mut := append([]byte(nil), blob...)
	mut[4]++ // little-endian version field follows the 4-byte magic
	if _, err := artifact.DecodeProc(mut, b.res.Procs["ART"]); err == nil {
		t.Fatal("version skew accepted")
	}
}

// TestKeyStability: body edits change only the edited unit's hash; any
// signature change moves the link hash.
func TestKeyStability(t *testing.T) {
	p1, _ := lang.Parse(src)
	edited := bytes.Replace([]byte(src), []byte("S = S + A(I)"), []byte("S = S - A(I)"), 1)
	p2, err := lang.Parse(string(edited))
	if err != nil {
		t.Fatal(err)
	}
	if artifact.UnitHash(p1.Unit("ART")) != artifact.UnitHash(p2.Unit("ART")) {
		t.Error("body edit in TWIST changed ART's unit hash")
	}
	if artifact.UnitHash(p1.Unit("TWIST")) == artifact.UnitHash(p2.Unit("TWIST")) {
		t.Error("body edit in TWIST did not change its unit hash")
	}
	if artifact.LinkHash(p1) != artifact.LinkHash(p2) {
		t.Error("body edit changed the link hash")
	}
	resigned := bytes.Replace([]byte(src), []byte("SUBROUTINE TWIST(A, I, S)"), []byte("SUBROUTINE TWIST(A, S, I)"), 1)
	p3, err := lang.Parse(string(resigned))
	if err != nil {
		t.Fatal(err)
	}
	if artifact.LinkHash(p1) == artifact.LinkHash(p3) {
		t.Error("parameter reorder did not change the link hash")
	}
	// Array extents are interface: resizing a declared shape must move the
	// link hash even though the parameter list is unchanged.
	resized := bytes.Replace([]byte(src), []byte("REAL A(10), S"), []byte("REAL A(11), S"), 1)
	p4, err := lang.Parse(string(resized))
	if err != nil {
		t.Fatal(err)
	}
	if artifact.LinkHash(p1) == artifact.LinkHash(p4) {
		t.Error("array extent change did not change the link hash")
	}
}

// TestKeyCoversConstValues: PARAMETER values feed dimension folding, so
// changing one must move the link hash, not just the defining unit's.
func TestKeyCoversConstValues(t *testing.T) {
	const constSrc = `      PROGRAM CP
      PARAMETER (N = 4)
      INTEGER I
      REAL S
      S = 0.0
      DO 10 I = 1, N
         S = S + 1.0
   10 CONTINUE
      PRINT *, S
      END
`
	p1, err := lang.Parse(constSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := lang.Parse(strings.Replace(constSrc, "N = 4", "N = 5", 1))
	if err != nil {
		t.Fatal(err)
	}
	if artifact.LinkHash(p1) == artifact.LinkHash(p2) {
		t.Error("PARAMETER value change did not change the link hash")
	}
}
