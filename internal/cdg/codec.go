package cdg

import (
	"repro/internal/cfg"
	"repro/internal/ecfg"
	"repro/internal/wire"
)

// Encode serializes the dependence edges: the succ and pred lists
// verbatim, so iteration orders survive the round trip. The topological
// order and dense tables are not written: Decode rebuilds them with the
// same deterministic computeTopo/buildDense pass Build runs, so a decoded
// FCDG is indistinguishable from a freshly built one.
func (g *Graph) Encode(w *wire.Writer) {
	w.Varint(int64(g.Root))
	encodeEdgeLists(w, g.succ)
	encodeEdgeLists(w, g.pred)
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

// Decode reads a Graph written by Encode, attached to ext, and recomputes
// its topological order and dense condition tables. An out-list that is
// not strictly (target, label)-ordered or whose edges leave another node,
// or a cyclic edge set, is rejected through r.Failf (the caller treats it
// as a cache miss).
func Decode(r *wire.Reader, ext *ecfg.Ext) *Graph {
	root := cfg.NodeID(r.Varint())
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
	if r.Err() != nil {
		return g
	}
	for n, es := range g.succ {
		for i, e := range es {
			if int(e.From) != n || i > 0 && byTargetLabel(es[i-1], e) >= 0 {
				r.Failf("cdg out-edge %v of node %d out of order", e, n)
				return g
			}
		}
	}
	if err := g.computeTopo(); err != nil {
		r.Failf("decoded forward CDG: %v", err)
		return g
	}
	g.buildDense()
	return g
}
