package cdg

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/ecfg"
	"repro/internal/wire"
)

// Encode serializes the dependence edges (succ and pred lists verbatim, so
// iteration orders survive the round trip) plus the back-edge markers. The
// dense caches of a forward graph are not written: Decode rebuilds them
// with the same deterministic computeTopo/buildDense pass Forward runs, so
// a decoded FCDG is indistinguishable from a freshly built one.
func (g *Graph) Encode(w *wire.Writer) {
	w.Varint(int64(g.Root))
	w.Bool(g.topo != nil) // forward graphs carry topo + dense caches
	encodeEdgeLists(w, g.succ)
	encodeEdgeLists(w, g.pred)
	nb := 0
	for _, es := range g.back {
		nb += len(es)
	}
	w.Uvarint(uint64(nb))
	for _, es := range g.back {
		for _, e := range es {
			cfg.EncodeEdge(w, e)
		}
	}
}

// encodeEdgeLists writes the non-empty lists of a per-node table as
// (node, edges) records in ascending node order.
func encodeEdgeLists(w *wire.Writer, lists [][]cfg.Edge) {
	keys := 0
	for _, es := range lists {
		if len(es) > 0 {
			keys++
		}
	}
	w.Uvarint(uint64(keys))
	for n, es := range lists {
		if len(es) == 0 {
			continue
		}
		w.Varint(int64(n))
		w.Uvarint(uint64(len(es)))
		for _, e := range es {
			cfg.EncodeEdge(w, e)
		}
	}
}

// decodeEdgeLists reads records written by encodeEdgeLists into lists,
// which is indexed by the extended graph's NodeIDs.
func decodeEdgeLists(r *wire.Reader, eg *cfg.Graph, lists [][]cfg.Edge) {
	nk := r.Count(2)
	for i := 0; i < nk; i++ {
		n := cfg.DecodeNodeID(r, eg)
		ne := r.Count(3)
		es := make([]cfg.Edge, 0, ne)
		for j := 0; j < ne; j++ {
			es = append(es, cfg.DecodeEdge(r, eg))
		}
		if r.Err() != nil {
			return
		}
		lists[n] = es
	}
}

// Decode reads a Graph written by Encode, attached to ext. For forward
// graphs the topological order and dense condition caches are recomputed;
// a cyclic edge set masquerading as a forward graph is rejected through
// r.Failf (the caller treats it as a cache miss).
func Decode(r *wire.Reader, ext *ecfg.Ext) *Graph {
	root := cfg.NodeID(r.Varint())
	forward := r.Bool()
	g := newGraph(ext, root)
	if r.Err() != nil {
		return g
	}
	eg := ext.G
	if eg.Node(g.Root) == nil {
		r.Failf("cdg root %d outside extended graph", g.Root)
		return g
	}
	decodeEdgeLists(r, eg, g.succ)
	decodeEdgeLists(r, eg, g.pred)
	nb := r.Count(3)
	for i := 0; i < nb; i++ {
		e := cfg.DecodeEdge(r, eg)
		if r.Err() != nil {
			return g
		}
		g.back[e.From] = append(g.back[e.From], e)
	}
	for _, es := range g.back {
		slices.SortFunc(es, byTargetLabel)
	}
	if forward {
		if err := g.computeTopo(); err != nil {
			r.Failf("decoded forward CDG: %v", err)
			return g
		}
		g.buildDense()
	}
	return g
}
