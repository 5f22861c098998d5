package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/lower"
)

// vars holds a procedure's per-node scalar use/def events as bit vectors:
// bit Symbol.Slot of a node's w-word row. Only scalars ever get a bit, so
// bit order is sorted-name order. Uses are may-uses; defs are must-defs (a
// CALL never defs for liveness — the callee might not write — and array
// element stores never def the array).
type vars struct {
	p     *lower.Proc
	w     int      // words per row
	use   []uint64 // per node, row n at [n*w, n*w+w)
	def   []uint64
	gen   []uint64 // definite-assignment gen: def plus scalars passed bare to a CALL
	param []uint64 // one row: parameter scalars
	local []uint64 // one row: non-parameter scalars
	// defVar[n] is the slot of the single scalar a node must-defs, or -1.
	// Only OpAssign defs are source-level stores (candidates for the
	// dead-store lint); DO machinery defs are marked but not lintable.
	defVar   []int32
	lintable []bool
}

func newVars(p *lower.Proc) *vars {
	v := &vars{p: p}
	var slots []*lang.Symbol
	if p.Unit != nil {
		slots = p.Unit.Slots
	}
	v.w = (len(slots) + 63) / 64
	n := int(p.G.MaxID()) + 1
	words := make([]uint64, (3*n+2)*v.w)
	v.use, words = words[:n*v.w], words[n*v.w:]
	v.def, words = words[:n*v.w], words[n*v.w:]
	v.gen, words = words[:n*v.w], words[n*v.w:]
	v.param, v.local = words[:v.w], words[v.w:]
	for _, sym := range slots {
		if isScalar(sym) && sym.IsParam {
			setBit(v.param, sym.Slot)
		} else if isScalar(sym) {
			setBit(v.local, sym.Slot)
		}
	}
	v.defVar = make([]int32, n)
	v.lintable = make([]bool, n)
	for id := cfg.NodeID(1); id < cfg.NodeID(n); id++ {
		v.defVar[id] = -1
		if p.Unit != nil {
			v.events(id)
		}
	}
	return v
}

func (v *vars) row(set []uint64, n cfg.NodeID) []uint64 {
	return set[int(n)*v.w : int(n)*v.w+v.w]
}

func setBit(set []uint64, i int) { set[i/64] |= 1 << (i % 64) }

func hasBit(set []uint64, i int) bool { return set[i/64]&(1<<(i%64)) != 0 }

// isScalar reports whether sym, the symbol sema stamped on a reference (nil
// in hand-built procedures), is a scalar.
func isScalar(sym *lang.Symbol) bool { return sym != nil && sym.Kind == lang.SymScalar }

// events fills the use/def/gen rows of node n from its op payload.
func (v *vars) events(n cfg.NodeID) {
	use, def, gen := v.row(v.use, n), v.row(v.def, n), v.row(v.gen, n)
	mark := func(sym *lang.Symbol) {
		if isScalar(sym) {
			setBit(use, sym.Slot)
		}
	}
	useExpr := func(e lang.Expr) { exprVars(e, mark) }
	defs := func(sym *lang.Symbol, lintable bool) {
		if isScalar(sym) {
			setBit(def, sym.Slot)
			v.defVar[n] = int32(sym.Slot)
			v.lintable[n] = lintable
		}
	}
	op, _ := v.p.G.Node(n).Payload.(lower.Op)
	switch o := op.(type) {
	case lower.OpAssign:
		useExpr(o.S.RHS)
		switch lhs := o.S.LHS.(type) {
		case *lang.Var:
			defs(lhs.Sym, true)
		case *lang.Index:
			for _, s := range lhs.Subs {
				useExpr(s)
			}
		}
	case lower.OpBranch:
		useExpr(o.Cond)
	case lower.OpArithIf:
		useExpr(o.E)
	case lower.OpComputedGoto:
		useExpr(o.E)
	case lower.OpDoInit:
		useExpr(o.L.Lo)
		useExpr(o.L.Hi)
		if o.L.Step != nil {
			useExpr(o.L.Step)
		}
		defs(o.L.VarSym, false)
	case lower.OpDoIncr:
		if o.L.Step != nil {
			useExpr(o.L.Step)
		}
		// The increment reads the loop variable before writing it.
		mark(o.L.VarSym)
		defs(o.L.VarSym, false)
	case lower.OpCall:
		for _, arg := range o.S.Args {
			useExpr(arg)
			// A scalar passed bare counts as assigned: the callee may
			// write it, and warning on later reads would be noise.
			if x, ok := arg.(*lang.Var); ok && isScalar(x.Sym) {
				setBit(gen, x.Sym.Slot)
			}
		}
	case lower.OpPrint:
		for _, e := range o.S.Items {
			useExpr(e)
		}
	}
	for i := range gen {
		gen[i] |= def[i]
	}
}

// exprVars calls fn with the symbol of every variable leaf of e (array
// subscripts included; whole-array references pass through fn and are
// filtered by isScalar).
func exprVars(e lang.Expr, fn func(*lang.Symbol)) {
	switch x := e.(type) {
	case *lang.Var:
		fn(x.Sym)
	case *lang.Index:
		fn(x.Sym)
		for _, s := range x.Subs {
			exprVars(s, fn)
		}
	case *lang.Un:
		exprVars(x.X, fn)
	case *lang.Bin:
		exprVars(x.L, fn)
		exprVars(x.R, fn)
	case *lang.Intrinsic:
		for _, a := range x.Args {
			exprVars(a, fn)
		}
	}
}

// solveBits runs a gen/kill bit-vector problem to its fixpoint in place and
// returns in, where row n is the meet-over-edges fact flowing INTO n along
// wl's direction: its live-out set for backward liveness, its entry set for
// forward definite assignment. A node's output is gen | in &^ kill. The
// direction fixes the meet, as liveness and definite assignment are the
// only two problems: backward is a may problem (union, Top = empty),
// forward a must problem (intersection, Top = everything). The boundary
// node (exit for backward, entry for forward) starts from boundary instead
// of Top. A nil kill or boundary means the empty set. Every node is seeded:
// one whose input never changes from Top still generates facts its
// neighbors must see once.
func (v *vars) solveBits(wl *worklist, gen, kill, boundary []uint64) []uint64 {
	g := v.p.G
	backward := wl.backward
	in := make([]uint64, (int(g.MaxID())+2)*v.w)
	in, out := in[:len(in)-v.w], in[len(in)-v.w:]
	b := g.Entry
	if backward {
		b = g.Exit
	} else {
		for i := range in {
			in[i] = ^uint64(0)
		}
	}
	if g.Node(b) != nil {
		br := v.row(in, b)
		clear(br)
		copy(br, boundary)
	}
	wl.pushAll()
	for {
		n, ok := wl.pop()
		if !ok {
			return in
		}
		copy(out, v.row(in, n))
		if kill != nil {
			for i, k := range v.row(kill, n) {
				out[i] &^= k
			}
		}
		for i, gw := range v.row(gen, n) {
			out[i] |= gw
		}
		edges := g.OutEdges(n)
		if backward {
			edges = g.InEdges(n)
		}
		for _, e := range edges {
			t := e.To
			if backward {
				t = e.From
			}
			tr := v.row(in, t)
			changed := false
			for i, o := range out {
				old := tr[i]
				nv := old & o
				if backward {
					nv = old | o
				}
				if nv != old {
					tr[i] = nv
					changed = true
				}
			}
			if changed {
				wl.push(t)
			}
		}
	}
}
