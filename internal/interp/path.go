package interp

import "repro/internal/cfg"

// Ball–Larus path profiling: engine-facing instrumentation spec and counter
// storage. The numbering itself (dummy-edge construction, increment values,
// decode back to edge frequencies) lives in internal/pathprof; this file
// only defines the contract both execution engines implement so that a
// path-instrumented run is bit-identical across the tree-walker, the VM and
// the batched VM.
//
// The runtime protocol per activation: a path register r starts at 0; taking
// the k-th out-edge of node n adds Inc[n][k]; when Bump[n][k] is set (back
// edges) the counter for path id r is bumped and r restarts at Reset[n][k]
// (the entry-dummy value of the loop header); executing END bumps the
// counter for the final r. A STOP unwinding through live activations records
// one (node, r) partial per instrumented frame, innermost first — the node
// is the STOP node for the stopping frame and the CALL node for each
// suspended caller — so recovery stays exact on stopped runs.

// PathDenseLimit is the NumPaths bound below which engines use a dense
// counter array; larger numberings fall back to a sparse map keyed by path
// id. 4096 keeps per-seed zeroing cheap in batch lanes while covering the
// generated corpus almost entirely.
const PathDenseLimit = 4096

// PathProcSpec instruments one procedure. Inc/Bump/Reset are indexed
// [node][k] parallel to Counts.Edge (the k-th out-edge of node in OutEdges
// order), so both engines apply them exactly where they already count edges.
type PathProcSpec struct {
	// NumPaths is the number of acyclic paths (valid counter ids are
	// 0..NumPaths-1).
	NumPaths int64
	// Inc is the Ball–Larus increment of each out-edge.
	Inc [][]int64
	// Bump marks back edges: taking one completes the current path (bump
	// counter r+Inc) and restarts the register at Reset.
	Bump [][]bool
	// Reset is the restart value after a Bump edge (the header's
	// entry-dummy value); 0 elsewhere.
	Reset [][]int64
}

// PathSpec is the whole-program instrumentation handed to a run via
// Options.PathSpec. Procedures absent from Procs (or mapped to nil) run
// uninstrumented — the planner falls back per procedure when a numbering
// overflows.
type PathSpec struct {
	Procs map[string]*PathProcSpec
}

// PathPartial records a path prefix cut short by STOP: the node the frame
// was suspended at and the path register value there.
type PathPartial struct {
	Node cfg.NodeID
	Reg  int64
}

// PathCounts is the per-procedure counter state of one run, or of several
// runs summed (Add). Exactly one of Dense or Sparse is non-nil, fixed by
// the spec at construction.
type PathCounts struct {
	NumPaths int64
	// Dense[id] counts completions of path id (NumPaths ≤ PathDenseLimit).
	Dense []int64
	// Sparse holds the same keyed by id for large numberings.
	Sparse map[int64]int64
	// Partials lists prefixes cut short by STOP, innermost frame first.
	Partials []PathPartial
}

// NewPathCounts builds empty counter storage for one instrumented procedure.
func NewPathCounts(ps *PathProcSpec) *PathCounts {
	pc := &PathCounts{NumPaths: ps.NumPaths}
	if ps.NumPaths <= PathDenseLimit {
		pc.Dense = make([]int64, ps.NumPaths)
	} else {
		pc.Sparse = make(map[int64]int64)
	}
	return pc
}

// Reset zeroes every counter and drops recorded partials, reusing the
// underlying storage — the batch engine's per-seed clear.
func (pc *PathCounts) Reset() {
	if pc.Dense != nil {
		clear(pc.Dense)
	} else {
		clear(pc.Sparse)
	}
	pc.Partials = pc.Partials[:0]
}

// Bump records one completed path.
func (pc *PathCounts) Bump(id int64) {
	if pc.Dense != nil {
		pc.Dense[id]++
	} else {
		pc.Sparse[id]++
	}
}

// Add accumulates another run's counts of the same procedure, built from
// the same spec: completion counts add path by path, and other's partials
// are appended. Counts are integers, so the sum does not depend on the
// order runs are added in.
func (pc *PathCounts) Add(other *PathCounts) {
	if pc.Dense != nil {
		for id, c := range other.Dense {
			pc.Dense[id] += c
		}
	} else {
		for id, c := range other.Sparse {
			pc.Sparse[id] += c
		}
	}
	pc.Partials = append(pc.Partials, other.Partials...)
}

// Total returns the completion count of path id.
func (pc *PathCounts) Total(id int64) int64 {
	if pc.Dense != nil {
		if id >= 0 && id < int64(len(pc.Dense)) {
			return pc.Dense[id]
		}
		return 0
	}
	return pc.Sparse[id]
}

// Each calls f once per path id with a nonzero completion count. Iteration
// order is unspecified for sparse storage.
func (pc *PathCounts) Each(f func(id, count int64)) {
	if pc.Dense != nil {
		for id, c := range pc.Dense {
			if c != 0 {
				f(int64(id), c)
			}
		}
		return
	}
	for id, c := range pc.Sparse {
		f(id, c)
	}
}

// Bumps returns the total number of counter bumps recorded (completed
// paths; partials excluded) and the number of distinct counters touched.
func (pc *PathCounts) Bumps() (bumps, touched int64) {
	pc.Each(func(_, c int64) {
		bumps += c
		touched++
	})
	return bumps, touched
}

// pathReg is the path state of one instrumented tree-walker activation:
// the register and the counters completions go to.
type pathReg struct {
	spec   *PathProcSpec
	counts *PathCounts
	reg    int64
}

// edge applies the k-th out-edge of node n: add its increment and, on a
// bump edge, complete the current path and restart at the edge's Reset.
func (r *pathReg) edge(n cfg.NodeID, k int) {
	r.reg += r.spec.Inc[n][k]
	if r.spec.Bump[n][k] {
		r.counts.Bump(r.reg)
		r.reg = r.spec.Reset[n][k]
	}
}

// end completes the activation's final path at END.
func (r *pathReg) end() { r.counts.Bump(r.reg) }

// cut records the prefix a STOP unwinding through the activation cut
// short at node n: the STOP node in the stopping frame, the CALL node in
// each suspended caller.
func (r *pathReg) cut(n cfg.NodeID) {
	r.counts.Partials = append(r.counts.Partials, PathPartial{Node: n, Reg: r.reg})
}
