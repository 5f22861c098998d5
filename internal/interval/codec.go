package interval

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/wire"
)

// Encode serializes the interval structure (sans the graph, which the
// caller re-attaches on decode): the HDR table, then per header in
// ascending order its HDR_PARENT, depth, sorted body and back edges, so
// identical structures encode to identical bytes.
func (in *Info) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(in.inner)))
	for n := range in.inner {
		w.Varint(int64(in.HDR(cfg.NodeID(n))))
	}
	w.Uvarint(uint64(len(in.headers)))
	bodies := in.bodies()
	for k, h := range in.headers {
		w.Varint(int64(h))
		w.Varint(int64(in.Parent(h)))
		w.Int(int(in.depth[k]))
		w.Uvarint(uint64(len(bodies[k])))
		for _, n := range bodies[k] {
			w.Varint(int64(n))
		}
		bes := in.backEdges[k]
		w.Uvarint(uint64(len(bes)))
		for _, e := range bes {
			cfg.EncodeEdge(w, e)
		}
	}
}

// Decode reads an interval structure written by Encode and attaches it to
// g, which must be the same graph the encoded structure was computed from
// (the artifact layer guarantees this via content hashing). Malformed
// input, including tables that do not form an interval structure (a
// header outside its own interval, an HDR_PARENT cycle, a depth or body
// that disagrees with the HDR table), surfaces through r.Err().
func Decode(r *wire.Reader, g *cfg.Graph) *Info {
	in := &Info{G: g}
	n := r.Count(1)
	if r.Err() == nil && n != int(g.MaxID())+1 {
		r.Failf("interval hdr table has %d entries, graph %q wants %d", n, g.Name, g.MaxID()+1)
		return in
	}
	hdr := make([]cfg.NodeID, n)
	for i := range hdr {
		hdr[i] = cfg.NodeID(r.Varint())
	}
	nh := r.Count(4)
	parents := make([]cfg.NodeID, 0, nh)
	var depths []int
	var bodies [][]cfg.NodeID
	for i := 0; i < nh; i++ {
		h := cfg.DecodeNodeID(r, g)
		parent := cfg.NodeID(r.Varint())
		depth := r.Int()
		nb := r.Count(1)
		body := make([]cfg.NodeID, 0, nb)
		for j := 0; j < nb; j++ {
			body = append(body, cfg.DecodeNodeID(r, g))
		}
		ne := r.Count(3)
		var bes []cfg.Edge
		for j := 0; j < ne; j++ {
			bes = append(bes, cfg.DecodeEdge(r, g))
		}
		if r.Err() != nil {
			return in
		}
		if len(in.headers) > 0 && h <= in.headers[len(in.headers)-1] {
			r.Failf("interval headers out of order at %d", h)
			return in
		}
		in.headers = append(in.headers, h)
		parents = append(parents, parent)
		depths = append(depths, depth)
		bodies = append(bodies, body)
		in.backEdges = append(in.backEdges, bes)
	}
	if r.Err() != nil {
		return in
	}
	// numOf maps a header node to its header number; -1 for anything else.
	numOf := func(h cfg.NodeID) int32 {
		k, ok := slices.BinarySearch(in.headers, h)
		if !ok {
			return -1
		}
		return int32(k)
	}
	if hdr[0] != cfg.None {
		r.Failf("interval hdr table maps node 0 to %d", hdr[0])
		return in
	}
	in.inner = make([]int32, n)
	for v, h := range hdr {
		if h == cfg.None {
			continue
		}
		k := numOf(h)
		if k < 0 {
			r.Failf("node %d has HDR %d, which is not a header", v, h)
			return in
		}
		in.inner[v] = k + 1
	}
	in.parent = make([]int32, len(in.headers))
	for k, h := range in.headers {
		if in.inner[h] != int32(k)+1 {
			r.Failf("header %d is not in its own interval", h)
			return in
		}
		in.parent[k] = -1
		if parents[k] != cfg.None {
			if in.parent[k] = numOf(parents[k]); in.parent[k] < 0 {
				r.Failf("header %d has HDR_PARENT %d, which is not a header", h, parents[k])
				return in
			}
		}
	}
	if !in.numberTree() {
		r.Failf("interval HDR_PARENT table has a cycle")
		return in
	}
	for k, body := range in.bodies() {
		if int(in.depth[k]) != depths[k] || !slices.Equal(body, bodies[k]) {
			r.Failf("interval %d: depth or body disagrees with the HDR table", in.headers[k])
			return in
		}
	}
	return in
}
