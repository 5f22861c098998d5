package vm

import (
	"context"
	"errors"

	"repro/internal/cfg"
	"repro/internal/interp"
)

// laneState is the VM's interp.Lane: one runState, with its frame arena,
// whose Result, counter slices and edge slabs are built once and zeroed
// between seeds. A lane runs its seeds sequentially; lanes never share
// mutable state. A single run is a lane that runs one seed.
type laneState struct {
	rs runState
}

// NewLane returns a lane running the compiled program under opt. opt's
// engine and hooks are not consulted; interp.NewLane routes tree-only
// options to the tree-walker.
func (p *Program) NewLane(opt interp.Options) interp.Lane { return newLaneState(p, opt) }

func newLaneState(p *Program, opt interp.Options) *laneState {
	ls := &laneState{}
	rs := &ls.rs
	rs.prog = p
	rs.opt = opt
	rs.arena = newLaneArena(len(p.procs))
	rs.max = opt.MaxSteps
	if rs.max == 0 {
		rs.max = 500_000_000
	}
	if opt.Model != nil {
		rs.costs = p.costTables(opt.Model)
	}
	ls.build()
	return ls
}

// build allocates fresh result storage: once at lane start, and again after
// Detach handed the previous seed's Result to the caller (which transferred
// ownership of the whole structure, counter slices included).
func (ls *laneState) build() {
	rs := &ls.rs
	p := rs.prog
	rs.result = &interp.Result{ByProc: make(map[string]*interp.Counts, len(p.procs))}
	rs.counts = make([]*interp.Counts, len(p.procs))
	rs.edges = make([][]int64, len(p.procs))
	for i, pc := range p.procs {
		g := pc.proc.G
		maxID := g.MaxID()
		flat := make([]int64, pc.numEdges)
		ct := &interp.Counts{
			Node: make([]int64, maxID+1),
			Edge: make([][]int64, maxID+1),
		}
		for id := cfg.NodeID(1); id <= maxID; id++ {
			off := int(pc.edgeOff[id])
			n := len(g.OutEdges(id))
			ct.Edge[id] = flat[off : off+n : off+n]
		}
		rs.result.ByProc[pc.name] = ct
		rs.counts[i] = ct
		rs.edges[i] = flat
	}
	rs.initPaths()
}

// reset clears the reusable per-seed state so the next seed starts from the
// exact state a fresh Run would: zero counters, zero cost, reseeded RNG.
func (ls *laneState) reset(seed uint64) {
	rs := &ls.rs
	rs.opt.Seed = seed
	rs.rng = interp.SeedRNG(seed)
	rs.steps = 0
	rs.depth = 0
	rs.args = rs.args[:0]
	rs.parts = rs.parts[:0]
	r := rs.result
	r.Steps = 0
	r.Cost = 0
	r.Stopped = false
	r.StopFrames = nil
	for i, ct := range rs.counts {
		clearInt64(ct.Node)
		ct.Activations = 0
		clearInt64(rs.edges[i])
	}
	for _, pcn := range rs.paths {
		if pcn != nil {
			pcn.Reset()
		}
	}
}

func clearInt64(s []int64) {
	for i := range s {
		s[i] = 0
	}
}

// Detach implements interp.Lane.
func (ls *laneState) Detach() { ls.build() }

// RunSeed executes one seed on the lane. The returned Result is the lane's
// reusable storage: valid until the next reset.
func (ls *laneState) RunSeed(seed uint64) (*interp.Result, error) {
	ls.reset(seed)
	rs := &ls.rs
	err := rs.runMain()
	if errors.Is(err, errStop) {
		rs.result.Stopped = true
		err = nil
	}
	rs.result.Steps = rs.steps
	return rs.result, err
}

// RunBatch executes every seed through the compiled program on up to lanes
// lanes (≤ 0 means GOMAXPROCS), each with its own arena-backed frames and
// reusable result storage; see interp.RunBatchOn for the sharding, the
// single-lane rules and the sink contract.
func (p *Program) RunBatch(opt interp.Options, seeds []uint64, lanes int, sink interp.BatchSink) (interp.BatchStats, error) {
	return interp.RunBatchOn(context.Background(), p.res, p, opt, seeds, lanes, sink)
}
