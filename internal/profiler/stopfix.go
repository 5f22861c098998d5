package profiler

import (
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/freq"
	"repro/internal/interp"
)

// A run that ends in STOP freezes a stack of activations mid-flight: the
// stopping frame at its STOP node and every suspended caller at its CALL
// node. The raw counter readings of such a run are still exact takings —
// counters increment when a branch is taken — but two kinds of step of
// the recovery schedule silently assume the run completed:
//
//  1. The DO trip rules (RuleDoConstTrip, RuleDoAddTrip) convert loop
//     entries into body/exit takings as if every entry ran its full trip
//     count. An entry frozen mid-loop took the body edge only (trip −
//     remaining + 1) times and never took the exit edge.
//
//  2. The node-execution derivation exec(u) = Σ in-condition takings
//     assumes a taken in-condition implies u executed. A frame frozen at s
//     had already taken the in-conditions of every node it was committed
//     to downstream of s, without reaching them.
//
// stopAdjust carries the per-procedure corrections for both, computed from
// interp.Result.StopFrames. A real instrumented binary obtains the same
// record in its STOP handler — the frozen call chain plus each frame's
// live DO registers — so this stays within the paper's counter model: no
// extra runtime instrumentation, only a dump-time stack walk.
type stopAdjust struct {
	// pending[u] counts the frozen frames that had taken one of u's
	// in-conditions without reaching u; subtracted from derived exec(u).
	pending map[cfg.NodeID]float64
	// inflight[test] counts the frames frozen inside the DO loop with that
	// test node (live register > 0); remaining[test] sums those frames'
	// remaining-trip registers, in-flight iteration included.
	inflight  map[cfg.NodeID]float64
	remaining map[cfg.NodeID]float64
}

// pendingAt is the number of frozen frames whose in-condition takings
// committed to u without reaching it (0 on a completed run).
func (adj *stopAdjust) pendingAt(u cfg.NodeID) float64 {
	if adj == nil {
		return 0
	}
	return adj.pending[u]
}

// inflightAt returns the frames frozen inside the DO loop with test node
// test and the sum of their remaining trips (0, 0 on a completed run).
func (adj *stopAdjust) inflightAt(test cfg.NodeID) (n, remaining float64) {
	if adj == nil {
		return 0, 0
	}
	return adj.inflight[test], adj.remaining[test]
}

// RecoverRun reconstructs TOTAL_FREQ for every control condition of the
// procedure from one run's simulated counter readings, exactly: unlike
// Recover on raw readings, it consults the run's StopFrames so totals on
// STOP-terminated runs equal actual takings instead of the trip rules'
// run-to-completion upper bound.
func (p *Plan) RecoverRun(run *interp.Result) (freq.Totals, error) {
	return p.recoverWith(p.SimulateReadings(run), p.stopCorrections(run))
}

// postDominators returns the postdominator tree of the extended graph,
// computed on the first stopped run that froze a frame of this procedure.
// Postdominance on the extended graph: pseudo edges make loop bodies
// skippable, so u pdom s says "committed at s" only for nodes in s's own
// iteration scope, never for bodies of loops not yet entered.
func (p *Plan) postDominators() *dom.Tree {
	p.pdomOnce.Do(func() { p.pdom = dom.PostDominators(p.A.Ext.G) })
	return p.pdom
}

// stopCorrections derives the stopAdjust of this procedure from a run's
// stop record; nil when no frame of this procedure froze.
func (p *Plan) stopCorrections(run *interp.Result) *stopAdjust {
	name := p.A.P.G.Name
	ext := p.A.Ext
	iv := ext.Intervals
	var adj *stopAdjust
	for _, sf := range run.StopFrames {
		if sf.Proc != name {
			continue
		}
		if adj == nil {
			adj = &stopAdjust{
				pending:   make(map[cfg.NodeID]float64),
				inflight:  make(map[cfg.NodeID]float64),
				remaining: make(map[cfg.NodeID]float64),
			}
		}
		for _, tr := range sf.Trips {
			adj.inflight[tr.Test]++
			adj.remaining[tr.Test] += float64(tr.Remaining)
		}
		pdom := p.postDominators()
		if !pdom.InTree(sf.Node) {
			continue
		}
		// The nodes u with u pdom s, u != s, are s's proper ancestors in
		// the postdominator tree.
		for u := pdom.Parent(sf.Node); u != cfg.None; u = pdom.Parent(u) {
			if u == ext.Stop {
				continue
			}
			// Loop-condition totals count header arrivals, and the trip
			// rules already cap exit takings of in-flight loops: headers
			// and postexits of loops enclosing s carry no pending arrival.
			if iv.IsHeader(u) && iv.Contains(u, sf.Node) {
				continue
			}
			if h, ok := ext.ExitedInterval[u]; ok && iv.Contains(h, sf.Node) {
				continue
			}
			adj.pending[u]++
		}
	}
	return adj
}
