package artifact

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/dataflow"
	"repro/internal/ecfg"
	"repro/internal/interval"
	"repro/internal/lower"
	"repro/internal/profiler"
	"repro/internal/wire"
)

// Blob layout:
//
//	"PTAF"                magic
//	u32                   FormatVersion
//	[32]byte              SHA-256 of everything after this field
//	sections              each: u8 tag, length-prefixed payload
//
// Sections appear in tag order at most once each. Unknown tags are a
// decode error (same version ⇒ same tag set; a new tag means a version
// bump was missed). The checksum rejects torn or bit-flipped files before
// any section decoder runs; the section decoders still tolerate arbitrary
// bytes (typed error, no panic) because the fuzz harness — and a hash
// collision, in principle — can hand them unchecked input.
const (
	secAnalysis = 1 // interval + ecfg + fcdg + dataflow
	secSarkar   = 2 // profiler.Plan
)

var magic = []byte("PTAF")

// ProcArtifact is the decoded (or to-be-encoded) middle-end of one
// procedure. A usable artifact always carries both parts, whatever engine
// and counter strategy wrote it: everything downstream of them (Ball–Larus
// numberings, VM bytecode) is cheaper to re-derive than to decode.
type ProcArtifact struct {
	An     *analysis.Proc
	Sarkar *profiler.Plan
}

// Encode renders the artifact as a self-checking blob.
func (pa *ProcArtifact) Encode() []byte {
	var body wire.Writer
	var sec wire.Writer

	encodeAnalysis(&sec, pa.An)
	body.U8(secAnalysis)
	body.BytesPrefixed(sec.Bytes())

	sec = wire.Writer{}
	pa.Sarkar.Encode(&sec)
	body.U8(secSarkar)
	body.BytesPrefixed(sec.Bytes())

	var out wire.Writer
	out.Raw(magic)
	out.U32(FormatVersion)
	sum := sha256.Sum256(body.Bytes())
	out.Raw(sum[:])
	out.Raw(body.Bytes())
	return out.Bytes()
}

// DecodeProc reads a blob back into a ProcArtifact attached to the freshly
// lowered p. Any malformation — bad magic, version skew, checksum
// mismatch, truncation, out-of-range IDs, duplicate or unknown sections —
// returns a typed error; callers treat every error as a cache miss.
func DecodeProc(blob []byte, p *lower.Proc) (*ProcArtifact, error) {
	r := wire.NewReader(blob)
	r.Expect(magic)
	if v := r.U32(); r.Err() == nil && v != FormatVersion {
		return nil, fmt.Errorf("artifact: format version %d, want %d", v, FormatVersion)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Remaining() < sha256.Size {
		return nil, fmt.Errorf("artifact: truncated checksum")
	}
	hdr := len(blob) - r.Remaining()
	want := blob[hdr : hdr+sha256.Size]
	body := blob[hdr+sha256.Size:]
	if got := sha256.Sum256(body); string(got[:]) != string(want) {
		return nil, fmt.Errorf("artifact: checksum mismatch")
	}
	return decodeSections(body, p)
}

// decodeSections decodes the post-checksum section stream. Split out so
// the fuzz harness can drive the section decoders with arbitrary bytes
// (recomputing the checksum would mask them behind SHA-256).
func decodeSections(body []byte, p *lower.Proc) (*ProcArtifact, error) {
	r := wire.NewReader(body)
	pa := &ProcArtifact{}
	prev := 0
	for r.Err() == nil && r.Remaining() > 0 {
		tag := int(r.U8())
		payload := r.BytesPrefixed()
		if r.Err() != nil {
			break
		}
		if tag <= prev || tag > secSarkar {
			return nil, fmt.Errorf("artifact: unexpected section tag %d after %d", tag, prev)
		}
		prev = tag
		sr := wire.NewReader(payload)
		switch tag {
		case secAnalysis:
			pa.An = decodeAnalysis(sr, p)
		case secSarkar:
			if pa.An == nil {
				return nil, fmt.Errorf("artifact: plan section without analysis section")
			}
			pa.Sarkar = profiler.DecodePlan(sr, pa.An)
		}
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("artifact: section %d: %w", tag, err)
		}
		if sr.Remaining() != 0 {
			return nil, fmt.Errorf("artifact: section %d: %d trailing bytes", tag, sr.Remaining())
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if pa.An == nil || pa.Sarkar == nil {
		return nil, fmt.Errorf("artifact: blob missing required sections")
	}
	return pa, nil
}

// encodeAnalysis writes the analysis section's payload.
func encodeAnalysis(w *wire.Writer, a *analysis.Proc) {
	a.Intervals.Encode(w)
	a.Ext.Encode(w)
	a.FCDG.Encode(w)
	a.Flow.Encode(w)
}

// decodeAnalysis reads an analysis section's payload attached to p; nil
// when r fails.
func decodeAnalysis(r *wire.Reader, p *lower.Proc) *analysis.Proc {
	a := &analysis.Proc{P: p}
	a.Intervals = interval.Decode(r, p.G)
	if r.Err() == nil {
		a.Ext = ecfg.Decode(r, p.G)
	}
	if r.Err() == nil {
		a.FCDG = cdg.Decode(r, a.Ext)
	}
	if r.Err() == nil {
		a.Flow = dataflow.Decode(r, p)
	}
	if r.Err() != nil {
		return nil
	}
	return a
}
