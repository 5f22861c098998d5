// Package artifact is the on-disk compiled-artifact cache: a versioned,
// self-describing binary format for the expensive per-procedure middle-end
// products (interval structure, extended CFG, control dependence, dataflow
// facts, Sarkar counter plan), keyed by content hash so an edited source
// file re-derives only the procedures it actually changed. Ball–Larus
// numberings and VM bytecode are not cached: re-deriving them from the
// decoded analysis costs less than decoding them would.
//
// The cache stores the middle-end only. A warm load still re-parses and
// re-lowers the source — that phase is cheap, deterministic, and restores
// the AST/CFG pointer identity the decoded artifacts re-attach to — then
// decodes everything downstream instead of recomputing it. Any read
// failure (version skew, truncation, bit corruption, concurrent partial
// write) is a cache miss, never an error: the pipeline falls back to fresh
// analysis and overwrites the bad entry.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// FormatVersion is bumped whenever any encoded structure changes shape —
// including changes to the encodings in other packages' codec files (cfg,
// interval, ecfg, cdg, dataflow, profiler) — or when the section set
// changes. Blobs written by any other version are rejected wholesale;
// there is no migration, the cache just goes cold. See DESIGN.md §17 for
// the bump policy.
//
// Version 3: a blob carries exactly the analysis and Sarkar-plan
// sections; the Ball–Larus, VM-bytecode and VM-bailout sections of
// version 2 are gone.
//
// Version 4: the analysis section carries the FCDG alone; the full CDG
// and the FCDG's forward flag and back-edge marker list are gone.
const FormatVersion = 4

// UnitHash is the content hash of one unit's full canonical dump:
// identical iff the unit parses to the same AST at the same positions.
// This is the per-procedure half of the cache key — editing one
// procedure's body changes only that procedure's UnitHash.
func UnitHash(u *lang.Unit) string {
	sum := sha256.Sum256([]byte(lang.DumpUnit(u)))
	return hex.EncodeToString(sum[:])
}

// sigDump renders the unit's interface — everything a caller can see:
// name, kind, parameter list, and the declarations/constants that give
// parameters their types and array shapes. Dimension extents and
// PARAMETER values are hashed in canonical expression form, so a shape or
// constant-value change invalidates callers too. Bodies are excluded, so
// a body-only edit leaves every other procedure's key intact.
func sigDump(u *lang.Unit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%t|%s\n", u.Name, u.IsMain, strings.Join(u.Params, ","))
	for _, d := range u.Decls {
		fmt.Fprintf(&b, "%s", d.Type)
		for _, it := range d.Items {
			fmt.Fprintf(&b, " %s/%d", it.Name, len(it.Dims))
			for _, dim := range it.Dims {
				fmt.Fprintf(&b, "(%s)", lang.DumpExpr(dim))
			}
		}
		b.WriteByte('\n')
	}
	for _, c := range u.Consts {
		fmt.Fprintf(&b, "const %s=%s\n", c.Name, lang.DumpExpr(c.Value))
	}
	return b.String()
}

// LinkHash hashes the program-level linkage: the sorted set of (unit
// name, signature) pairs plus which unit is main. Adding, removing,
// renaming, or re-signaturing any unit invalidates everything, while body
// edits invalidate nothing but the edited unit. The cached sections are
// derived from one unit's body alone, so this is conservative: it keeps a
// section that ever comes to read a callee's interface from going stale.
func LinkHash(prog *lang.Program) string {
	sigs := make([]string, 0, len(prog.Units))
	main := ""
	for _, u := range prog.Units {
		sum := sha256.Sum256([]byte(sigDump(u)))
		sigs = append(sigs, u.Name+"="+hex.EncodeToString(sum[:]))
		if u.IsMain {
			main = u.Name
		}
	}
	sort.Strings(sigs)
	h := sha256.New()
	fmt.Fprintf(h, "main=%s\n", main)
	for _, s := range sigs {
		fmt.Fprintln(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ProcKey is the cache key of one procedure's artifact blob. The format
// version is part of the key so a version bump never even reads stale
// files. Engine and plan no longer change a blob's contents, so a program
// loaded under several of them stores identical blobs under separate
// keys; they stay in the key because bench/cacheedit.go computes keys
// from the same four inputs, so dropping them is a change to the
// benchmark.
func ProcKey(unitHash, linkHash, engine, plan string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\n%s\n%s\n%s\n%s\n", FormatVersion, unitHash, linkHash, engine, plan)
	return hex.EncodeToString(h.Sum(nil))
}
