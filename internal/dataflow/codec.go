package dataflow

import (
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/wire"
)

// Encode serializes the facts (sans Proc, re-attached on decode). Each
// binding is written under its name, a scalar's source name or a trip
// register's "\x00trip@<test>", in name order: the trip registers (the
// tail of an Env) sort first. Maps are written in sorted key order for
// deterministic bytes.
func (f *Facts) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(f.Env)))
	for _, env := range f.Env {
		if env == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Uvarint(uint64(len(env)))
		split, _ := slices.BinarySearchFunc(env, f.nslots(), cmpIndex)
		for j := range env { // the tail env[split:] first
			b := env[(split+j)%len(env)]
			w.String(f.name(b.Index))
			encodeValue(w, b.Val)
		}
	}
	w.Uvarint(uint64(len(f.Reached)))
	for _, b := range f.Reached {
		w.Bool(b)
	}
	w.Uvarint(uint64(len(f.Infeasible)))
	for _, e := range f.Infeasible {
		cfg.EncodeEdge(w, e)
	}
	encodeNodeMap(w, f.ConstBranch, func(l cfg.Label) { w.String(string(l)) })
	encodeNodeMap(w, f.ConstTrips, func(t int64) { w.Varint(t) })
	w.Uvarint(uint64(len(f.DeadNodes)))
	for _, n := range f.DeadNodes {
		w.Varint(int64(n))
	}
	encodeFindings(w, f.DeadStores)
	encodeFindings(w, f.UseBeforeDef)
}

func encodeNodeMap[V any](w *wire.Writer, m map[cfg.NodeID]V, enc func(V)) {
	keys := make([]cfg.NodeID, 0, len(m))
	for n := range m {
		keys = append(keys, n)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Uvarint(uint64(len(keys)))
	for _, n := range keys {
		w.Varint(int64(n))
		enc(m[n])
	}
}

func encodeFindings(w *wire.Writer, fs []Finding) {
	w.Uvarint(uint64(len(fs)))
	for _, fd := range fs {
		w.Varint(int64(fd.Node))
		w.String(fd.Var)
		w.Int(fd.Line)
		w.Int(fd.Col)
		w.String(fd.Msg)
	}
}

func encodeValue(w *wire.Writer, v interp.Value) {
	w.U8(uint8(v.T))
	w.Varint(v.I)
	w.F64(v.R)
	w.Bool(v.B)
}

func decodeValue(r *wire.Reader) interp.Value {
	v := interp.Value{T: lang.Type(r.U8()), I: r.Varint(), R: r.F64(), B: r.Bool()}
	if r.Err() == nil && (v.T < lang.TNone || v.T > lang.TLogical) {
		r.Failf("invalid value type %d", int(v.T))
	}
	return v
}

// Decode reads Facts written by Encode, attached to the freshly lowered p.
func Decode(r *wire.Reader, p *lower.Proc) *Facts {
	f := &Facts{
		Proc:        p,
		ConstBranch: make(map[cfg.NodeID]cfg.Label),
		ConstTrips:  make(map[cfg.NodeID]int64),
	}
	g := p.G
	ne := r.Count(1)
	if r.Err() == nil && ne != int(g.MaxID())+1 {
		r.Failf("dataflow env table has %d entries, graph wants %d", ne, g.MaxID()+1)
		return f
	}
	f.tripNames, _ = tripNames(g, f.nslots())
	f.Env = make([]Env, ne)
	for i := 0; i < ne; i++ {
		if !r.Bool() {
			continue
		}
		env := make(Env, r.Count(2))
		for j := range env {
			env[j] = Binding{f.decodeIndex(r), decodeValue(r)}
		}
		if r.Err() != nil {
			return f
		}
		// Names sort trip registers first; indices put them last.
		slices.SortFunc(env, func(a, b Binding) int { return int(a.Index - b.Index) })
		for j := 1; j < len(env); j++ {
			if env[j].Index == env[j-1].Index {
				r.Failf("dataflow env binds %q twice", f.name(env[j].Index))
				return f
			}
		}
		f.Env[i] = env
	}
	nr := r.Count(1)
	if r.Err() == nil && nr != ne {
		r.Failf("dataflow reached table has %d entries, want %d", nr, ne)
		return f
	}
	f.Reached = make([]bool, nr)
	for i := 0; i < nr; i++ {
		f.Reached[i] = r.Bool()
	}
	ni := r.Count(3)
	for i := 0; i < ni; i++ {
		f.Infeasible = append(f.Infeasible, cfg.DecodeEdge(r, g))
	}
	nb := r.Count(2)
	for i := 0; i < nb; i++ {
		n := cfg.DecodeNodeID(r, g)
		l := cfg.Label(r.String())
		if r.Err() != nil {
			return f
		}
		f.ConstBranch[n] = l
	}
	nt := r.Count(2)
	for i := 0; i < nt; i++ {
		n := cfg.DecodeNodeID(r, g)
		t := r.Varint()
		if r.Err() != nil {
			return f
		}
		f.ConstTrips[n] = t
	}
	nd := r.Count(1)
	for i := 0; i < nd; i++ {
		f.DeadNodes = append(f.DeadNodes, cfg.DecodeNodeID(r, g))
	}
	f.DeadStores = decodeFindings(r, g)
	f.UseBeforeDef = decodeFindings(r, g)
	return f
}

// decodeIndex reads a binding name and resolves it to its Env index.
func (f *Facts) decodeIndex(r *wire.Reader) int32 {
	name := r.String()
	if k, ok := slices.BinarySearch(f.tripNames, name); ok {
		return f.nslots() + int32(k)
	}
	if u := f.Proc.Unit; u != nil && isScalar(u.Symbols[name]) {
		return int32(u.Symbols[name].Slot)
	}
	r.Failf("dataflow env binds unknown variable %q", name)
	return -1
}

// name is the name Encode writes for Env index i; decodeIndex inverts it.
func (f *Facts) name(i int32) string {
	if ns := f.nslots(); i >= ns {
		return f.tripNames[i-ns]
	}
	return f.Proc.Unit.Slots[i].Name
}

func decodeFindings(r *wire.Reader, g *cfg.Graph) []Finding {
	n := r.Count(5)
	var out []Finding
	for i := 0; i < n; i++ {
		fd := Finding{
			Node: cfg.DecodeNodeID(r, g),
			Var:  r.String(),
			Line: r.Int(),
			Col:  r.Int(),
			Msg:  r.String(),
		}
		if r.Err() != nil {
			return out
		}
		out = append(out, fd)
	}
	return out
}
