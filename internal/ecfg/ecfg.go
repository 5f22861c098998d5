// Package ecfg builds the extended control flow graph (ECFG) of Section 2
// of the paper.
//
// Starting from a reducible CFG and its interval structure, the
// transformation:
//
//  1. creates a PREHEADER node for every loop header and redirects interval
//     entry edges through it,
//  2. splits every interval exit edge through a fresh POSTEXIT node and adds
//     a pseudo control flow edge from the interval's preheader to the
//     postexit,
//  3. adds START and STOP nodes around the procedure with a pseudo edge
//     START -> STOP.
//
// The pseudo edges (labels Z1/Z2, never taken at run time) give the forward
// control dependence graph its nested interval structure: every node of the
// procedure becomes (transitively) control dependent on START, and every
// node of an interval becomes (transitively) control dependent on the
// interval's preheader.
//
// One generalization over the paper's one-pass step 3: an edge that jumps
// out of k nested intervals at once is routed through a chain of k POSTEXIT
// nodes (the exit-splitting rule is applied to a fixpoint), so multi-level
// exits also respect interval nesting in the FCDG.
package ecfg

import (
	"fmt"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/interval"
)

// Ext is an extended control flow graph together with the bookkeeping that
// later phases (FCDG construction, profiling, estimation) need.
type Ext struct {
	// G is the extended graph. Node IDs of the original graph are
	// preserved; all new nodes have IDs greater than OrigMax.
	G *cfg.Graph

	// Start and Stop are the synthetic START and STOP nodes.
	Start, Stop cfg.NodeID

	// OrigEntry and OrigExit are the original entry/exit (n_first, n_last).
	OrigEntry, OrigExit cfg.NodeID

	// OrigMax is the largest node ID of the input graph.
	OrigMax cfg.NodeID

	// Preheader maps each loop header to its preheader node.
	Preheader map[cfg.NodeID]cfg.NodeID
	// HeaderOf maps each preheader back to its header.
	HeaderOf map[cfg.NodeID]cfg.NodeID

	// Postexits lists the POSTEXIT nodes in creation order.
	Postexits []cfg.NodeID
	// ExitedInterval maps each postexit to the header of the interval the
	// exit leaves.
	ExitedInterval map[cfg.NodeID]cfg.NodeID

	// Intervals is the interval structure recomputed on the extended graph.
	// Loop headers are identical to the input's; preheaders and postexits
	// belong to the parent interval of the loop they serve.
	Intervals *interval.Info
}

// Build constructs the ECFG of g using its interval structure in. The input
// graph is not modified. g must validate and be reducible (in must come
// from interval.Analyze(g)).
func Build(g *cfg.Graph, in *interval.Info) (*Ext, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ecfg: %w", err)
	}
	eg := g.Clone()
	ext := &Ext{
		G:              eg,
		OrigEntry:      g.Entry,
		OrigExit:       g.Exit,
		OrigMax:        g.MaxID(),
		Preheader:      make(map[cfg.NodeID]cfg.NodeID),
		HeaderOf:       make(map[cfg.NodeID]cfg.NodeID),
		ExitedInterval: make(map[cfg.NodeID]cfg.NodeID),
	}

	// hdrx extends HDR to the nodes we create: preheaders and postexits
	// live in the parent interval of the loop they serve. hdrx[i] is the
	// HDR of synthetic node OrigMax+1+i.
	var hdrx []cfg.NodeID
	hdrOf := func(n cfg.NodeID) cfg.NodeID {
		if n <= ext.OrigMax {
			return in.HDR(n)
		}
		return hdrx[n-ext.OrigMax-1]
	}

	// Step 2: preheaders. Mark headers and redirect interval entries.
	for _, h := range in.Headers() {
		eg.Node(h).Type = cfg.Header
		ph := eg.AddNode(cfg.Preheader, "PREHEADER("+strconv.Itoa(int(h))+")")
		ext.Preheader[h] = ph.ID
		ext.HeaderOf[ph.ID] = h
		hdrx = append(hdrx, in.Parent(h))
		// Snapshot in-edges before mutating.
		entries := append([]cfg.Edge(nil), eg.InEdges(h)...)
		for _, e := range entries {
			if in.LCA(hdrOf(e.From), h) == h {
				continue // back edge or edge from within the interval
			}
			eg.RemoveEdge(e.From, h, e.Label)
			eg.MustAddEdge(e.From, ph.ID, e.Label)
		}
		eg.MustAddEdge(ph.ID, h, cfg.Uncond)
	}

	// Step 3 (to a fixpoint): split interval exit edges through POSTEXIT
	// nodes. The worklist carries edges still to be examined; edges created
	// by a split are re-examined so multi-level exits build a postexit
	// chain.
	work := eg.Edges()
	for len(work) > 0 {
		e := work[0]
		work = work[1:]
		if e.Pseudo() {
			continue
		}
		hu := hdrOf(e.From)
		if hu == cfg.None {
			continue // source is in the outermost interval: nothing to exit
		}
		if in.LCA(hu, hdrOf(e.To)) == hu {
			continue // target inside the source's interval
		}
		// Splitting happens only if the edge still exists (a prior split
		// may have consumed it).
		if !eg.RemoveEdge(e.From, e.To, e.Label) {
			continue
		}
		pe := eg.AddNode(cfg.Postexit, "POSTEXIT("+strconv.Itoa(int(hu))+")")
		hdrx = append(hdrx, in.Parent(hu))
		ext.Postexits = append(ext.Postexits, pe.ID)
		ext.ExitedInterval[pe.ID] = hu
		eg.MustAddEdge(e.From, pe.ID, e.Label)
		eg.MustAddEdge(pe.ID, e.To, cfg.Uncond)
		eg.MustAddEdge(ext.Preheader[hu], pe.ID, cfg.PseudoLoop)
		// The continuation may still exit an enclosing interval.
		work = append(work, cfg.Edge{From: pe.ID, To: e.To, Label: cfg.Uncond})
	}

	// Steps 4-6: START, STOP and the START -> STOP pseudo edge.
	start := eg.AddNode(cfg.Start, "START")
	stop := eg.AddNode(cfg.Stop, "STOP")
	ext.Start, ext.Stop = start.ID, stop.ID
	// The original entry may have been a loop header whose entry edges now
	// route through a preheader; START must enter through it too.
	entryTarget := ext.OrigEntry
	if ph, ok := ext.Preheader[entryTarget]; ok {
		entryTarget = ph
	}
	eg.MustAddEdge(start.ID, entryTarget, cfg.Uncond)
	eg.MustAddEdge(ext.OrigExit, stop.ID, cfg.Uncond)
	eg.MustAddEdge(start.ID, stop.ID, cfg.PseudoStartStop)
	eg.Entry, eg.Exit = start.ID, stop.ID

	if err := eg.Validate(); err != nil {
		return nil, fmt.Errorf("ecfg: extended graph invalid: %w", err)
	}
	ivx, err := interval.Analyze(eg)
	if err != nil {
		return nil, fmt.Errorf("ecfg: extended graph lost reducibility: %w", err)
	}
	ext.Intervals = ivx
	if err := ext.check(); err != nil {
		return nil, err
	}
	return ext, nil
}

// check verifies the structural properties the rest of the pipeline relies
// on: headers are unchanged, each header's only interval entry is its
// preheader, and every postexit has exactly one non-pseudo in-edge and one
// out-edge.
func (ext *Ext) check() error {
	for _, h := range ext.Intervals.Headers() {
		if _, ok := ext.Preheader[h]; !ok {
			return fmt.Errorf("ecfg: extended graph has header %d with no preheader", h)
		}
		for _, e := range ext.G.InEdges(h) {
			if ext.Intervals.Contains(h, e.From) {
				continue
			}
			if e.From != ext.Preheader[h] {
				return fmt.Errorf("ecfg: interval entry %v bypasses preheader of %d", e, h)
			}
		}
	}
	for _, pe := range ext.Postexits {
		real := 0
		for _, e := range ext.G.InEdges(pe) {
			if !e.Pseudo() {
				real++
			}
		}
		if real != 1 {
			return fmt.Errorf("ecfg: postexit %d has %d real in-edges, want 1", pe, real)
		}
		if len(ext.G.OutEdges(pe)) != 1 {
			return fmt.Errorf("ecfg: postexit %d has %d out-edges, want 1", pe, len(ext.G.OutEdges(pe)))
		}
	}
	return nil
}

// IsSynthetic reports whether n was created by the ECFG transformation
// (START, STOP, preheader or postexit) rather than copied from the input.
func (ext *Ext) IsSynthetic(n cfg.NodeID) bool { return n > ext.OrigMax }

// LoopBodyLabel is the label of the edge connecting a preheader to its
// header; per Definition 3 the frequency of (preheader, LoopBodyLabel) is
// the loop frequency of the interval.
const LoopBodyLabel = cfg.Uncond
