package cfg

import (
	"repro/internal/wire"
)

// Encode writes the graph's full structure — nodes (ID order, type, name
// as Node.Name renders it),
// entry/exit, and the succ and pred adjacency lists verbatim — so Decode
// reconstructs a graph whose observable state (including edge iteration
// order) is bit-identical to the original. Payloads are NOT encoded: the
// artifact cache re-lowers the source on load and re-attaches payloads by
// node ID, which preserves the pointer sharing (e.g. one *lang.DoLoop
// across its DO nodes) that serialization would break.
func (g *Graph) Encode(w *wire.Writer) {
	w.String(g.Name)
	w.Varint(int64(g.Entry))
	w.Varint(int64(g.Exit))
	w.Uvarint(uint64(g.NumNodes()))
	for _, n := range g.nodes[1:] {
		w.U8(uint8(n.Type))
		w.String(n.Name())
	}
	encodeAdj(w, g.succ[1:])
	encodeAdj(w, g.pred[1:])
}

func encodeAdj(w *wire.Writer, adj [][]Edge) {
	for _, edges := range adj {
		w.Uvarint(uint64(len(edges)))
		for _, e := range edges {
			w.Varint(int64(e.From))
			w.Varint(int64(e.To))
			w.String(string(e.Label))
		}
	}
}

func decodeAdj(r *wire.Reader, n int) [][]Edge {
	adj := make([][]Edge, n+1)
	for id := 1; id <= n; id++ {
		m := r.Count(3)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			e := Edge{
				From:  NodeID(r.Varint()),
				To:    NodeID(r.Varint()),
				Label: Label(r.String()),
			}
			if e.From <= None || int(e.From) > n || e.To <= None || int(e.To) > n {
				r.Failf("edge %v references node outside graph of %d nodes", e, n)
				return adj
			}
			edges = append(edges, e)
		}
		adj[id] = edges
	}
	return adj
}

// DecodeGraph reads a graph written by Encode. payload, when non-nil,
// supplies each node's Payload (typically from a freshly lowered copy of
// the same procedure). Malformed input surfaces through r.Err(); the
// returned graph is only meaningful when r.Err() == nil.
func DecodeGraph(r *wire.Reader, payload func(NodeID) any) *Graph {
	g := New(r.String())
	g.Entry = NodeID(r.Varint())
	g.Exit = NodeID(r.Varint())
	n := r.Count(2)
	for id := 1; id <= n; id++ {
		t := NodeType(r.U8())
		name := r.String()
		if t < Other || t > Postexit {
			r.Failf("node %d has invalid type %d", id, int(t))
			return g
		}
		node := g.AddNode(t, name)
		if payload != nil {
			node.Payload = payload(node.ID)
		}
	}
	if r.Err() != nil {
		return g
	}
	g.succ = decodeAdj(r, n)
	g.pred = decodeAdj(r, n)
	if g.Entry != None && g.Node(g.Entry) == nil {
		r.Failf("entry %d outside graph", g.Entry)
	}
	if g.Exit != None && g.Node(g.Exit) == nil {
		r.Failf("exit %d outside graph", g.Exit)
	}
	return g
}

// DecodeNodeID reads a node ID and validates it against g (None allowed).
func DecodeNodeID(r *wire.Reader, g *Graph) NodeID {
	id := NodeID(r.Varint())
	if id == None {
		return id
	}
	if g.Node(id) == nil {
		r.Failf("node ID %d outside graph %q", id, g.Name)
		return None
	}
	return id
}

// DecodeEdge reads an edge whose endpoints must exist in g.
func DecodeEdge(r *wire.Reader, g *Graph) Edge {
	e := Edge{From: NodeID(r.Varint()), To: NodeID(r.Varint()), Label: Label(r.String())}
	if r.Err() == nil && (g.Node(e.From) == nil || g.Node(e.To) == nil) {
		r.Failf("edge %v references node outside graph %q", e, g.Name)
	}
	return e
}

// EncodeEdge writes an edge for DecodeEdge.
func EncodeEdge(w *wire.Writer, e Edge) {
	w.Varint(int64(e.From))
	w.Varint(int64(e.To))
	w.String(string(e.Label))
}
