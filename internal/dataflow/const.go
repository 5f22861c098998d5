package dataflow

import (
	"slices"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
)

// Env is the constant environment at a program point: only the proven
// constants, as bindings sorted by index. Absence means "varying"; a nil Env
// means the point is unreached. Index i < nslots (the unit's symbol count)
// is the scalar of Symbol.Slot i; index nslots+k is the hidden trip register
// of the k-th DO loop key (see tripNames), which the interpreter keys by the
// loop's test node. Environments are copy-on-write: an operation that
// changes nothing returns its input, so nodes share them by pointer.
type Env []Binding

// Binding is one proven-constant entry of an Env.
type Binding struct {
	Index int32
	Val   interp.Value
}

// get binary-searches e for index i.
func (e Env) get(i int32) (interp.Value, bool) {
	k, ok := slices.BinarySearchFunc(e, i, cmpIndex)
	if !ok {
		return interp.Value{}, false
	}
	return e[k].Val, true
}

func cmpIndex(b Binding, i int32) int { return int(b.Index - i) }

// with returns e with index i bound to v, copying on write.
func (e Env) with(i int32, v interp.Value) Env {
	k, ok := slices.BinarySearchFunc(e, i, cmpIndex)
	if ok && ValueEq(e[k].Val, v) {
		return e
	}
	out := make(Env, 0, len(e)+1)
	out = append(out, e[:k]...)
	out = append(out, Binding{i, v})
	if ok {
		k++
	}
	return append(out, e[k:]...)
}

// without returns e with index i unbound, copying on write.
func (e Env) without(i int32) Env {
	if k, ok := slices.BinarySearchFunc(e, i, cmpIndex); ok {
		return slices.Delete(slices.Clone(e), k, k+1)
	}
	return e
}

// meetEnv intersects two environments by a merge over their sorted
// bindings, keeping only those present and equal in both. A nil old
// environment (unreached) adopts the incoming one.
func meetEnv(old, in Env) (Env, bool) {
	if old == nil {
		if in == nil {
			in = Env{}
		}
		return in, true
	}
	var out Env // allocated at the first dropped binding
	j := 0
	for k, b := range old {
		for j < len(in) && in[j].Index < b.Index {
			j++
		}
		if j < len(in) && in[j].Index == b.Index && ValueEq(in[j].Val, b.Val) {
			if out != nil {
				out = append(out, b)
			}
			continue
		}
		if out == nil {
			out = make(Env, k, len(old)-1)
			copy(out, old[:k])
		}
	}
	if out == nil {
		return old, false
	}
	return out, true
}

// tripKeyPrefix starts the name a trip register is encoded under; '\x00'
// cannot occur in a Fortran identifier.
const tripKeyPrefix = "\x00trip@"

// tripNames returns the distinct encoded names of g's DO trip registers,
// "\x00trip@<test node>", sorted, and nodeTrip: for each node with a DO op,
// base plus its register's position in names; -1 for other nodes.
func tripNames(g *cfg.Graph, base int32) (names []string, nodeTrip []int32) {
	nodeTrip = make([]int32, g.MaxID()+1)
	nodeName := make([]string, g.MaxID()+1)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		nodeTrip[id] = -1
		if key, ok := doKey(g.Node(id).Payload); ok {
			nodeName[id] = tripKeyPrefix + strconv.Itoa(int(key))
			names = append(names, nodeName[id])
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)
	for id, name := range nodeName {
		if name != "" {
			k, _ := slices.BinarySearch(names, name)
			nodeTrip[id] = base + int32(k)
		}
	}
	return names, nodeTrip
}

// doKey returns the trip key of a DO op payload.
func doKey(payload any) (cfg.NodeID, bool) {
	switch o := payload.(type) {
	case lower.OpDoInit:
		return o.Test, true
	case lower.OpDoTest:
		return o.Key, true
	case lower.OpDoIncr:
		return o.Test, true
	}
	return cfg.None, false
}

// constProp is the conditional constant propagation state: an SCCP-style
// analysis that interleaves constant tracking with edge feasibility, so
// constants are only merged over edges that can execute.
type constProp struct {
	p *lower.Proc
	// trip[n] is the env index of node n's DO trip register, or -1.
	trip []int32
	// env[n] is the constant environment at node entry; nil = unreached.
	env []Env
	// feasible[n][k] marks the k-th out-edge of n (OutEdges order) as
	// executable under the facts proven so far.
	feasible [][]bool
}

// runConstProp computes the SCCP fixpoint for p in the forward worklist's
// priority order; the edge-level feasibility is what makes the propagation
// *conditional*: successors are only (re)visited through edges proven
// executable. nodeTrip maps each DO node to its trip register's env index.
func runConstProp(p *lower.Proc, nodeTrip []int32, wl *worklist) *constProp {
	g := p.G
	c := &constProp{p: p, trip: nodeTrip, env: make([]Env, g.MaxID()+1), feasible: make([][]bool, g.MaxID()+1)}
	edges := 0
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		edges += len(g.OutEdges(id))
	}
	flags := make([]bool, edges)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		k := len(g.OutEdges(id))
		c.feasible[id], flags = flags[:k:k], flags[k:]
	}
	c.env[g.Entry] = c.boundary()
	wl.push(g.Entry)
	for {
		n, ok := wl.pop()
		if !ok {
			return c
		}
		in := c.env[n]
		out := c.transfer(n, in)
		taken, decided := c.decided(n, in)
		for k, e := range g.OutEdges(n) {
			if decided && e.Label != taken {
				continue
			}
			newlyFeasible := !c.feasible[n][k]
			c.feasible[n][k] = true
			t := e.To
			merged, changed := meetEnv(c.env[t], out)
			if changed || newlyFeasible {
				c.env[t] = merged
				wl.push(t)
			}
		}
	}
}

// boundary is the environment the interpreter guarantees at activation
// entry: every scalar local is zero-initialized (machine.call allocates
// &Value{T: sym.Type}), parameters are bound by reference to caller state
// and therefore unknown, arrays are not tracked.
func (c *constProp) boundary() Env {
	if c.p.Unit == nil { // hand-built test graphs carry no symbol table
		return Env{}
	}
	env := make(Env, 0, len(c.p.Unit.Slots))
	for _, sym := range c.p.Unit.Slots {
		if isScalar(sym) && !sym.IsParam {
			env = append(env, Binding{int32(sym.Slot), interp.Value{T: sym.Type}})
		}
	}
	return env
}

// slot is the env index of a scalar, or -1 for anything no constant is
// ever bound to.
func slot(sym *lang.Symbol) int32 {
	if isScalar(sym) {
		return int32(sym.Slot)
	}
	return -1
}

// transfer computes the node-exit environment, mirroring machine.exec's
// state effects (including the Convert each store applies). The input is
// never mutated; an unchanged environment is returned as-is.
func (c *constProp) transfer(n cfg.NodeID, in Env) Env {
	op, _ := c.p.G.Node(n).Payload.(lower.Op)
	switch o := op.(type) {
	case lower.OpAssign:
		lhs, ok := o.S.LHS.(*lang.Var)
		if !ok {
			return in // array element stores are not tracked
		}
		v, ok := c.eval(in, o.S.RHS)
		return store(in, lhs.Sym, v, ok)
	case lower.OpDoInit:
		// machine.exec stores Int(lo.I) through setScalar's Convert.
		lo, ok := c.eval(in, o.L.Lo)
		out := store(in, o.L.VarSym, interp.Int(lo.I), ok)
		if trip, ok := c.tripCount(in, o.L); ok {
			return out.with(c.trip[n], interp.Int(trip))
		}
		return out.without(c.trip[n])
	case lower.OpDoIncr:
		cur, okCur := in.get(slot(o.L.VarSym))
		step, okStep := c.step(in, o.L)
		out := store(in, o.L.VarSym, interp.Int(cur.I+step), okCur && okStep)
		if t, ok := out.get(c.trip[n]); ok {
			return out.with(c.trip[n], interp.Int(t.I-1))
		}
		return out
	case lower.OpCall:
		// Scalar variables passed as bare arguments are bound by reference;
		// the callee may overwrite them. Everything else is a copy (or an
		// untracked array).
		out := in
		for _, arg := range o.S.Args {
			if v, ok := arg.(*lang.Var); ok {
				out = out.without(slot(v.Sym))
			}
		}
		return out
	}
	return in
}

// store binds the scalar sym to v converted as a runtime store converts it
// when known is set, and unbinds it otherwise. Stores to by-reference
// parameters land in a caller cell whose type is not visible here, so no
// constant survives them.
func store(in Env, sym *lang.Symbol, v interp.Value, known bool) Env {
	if !isScalar(sym) {
		return in
	}
	if known && !sym.IsParam {
		return in.with(int32(sym.Slot), interp.Convert(v, sym.Type))
	}
	return in.without(int32(sym.Slot))
}

// decided returns the one out-edge label node n can take under the
// environment in, or decided=false when every label remains possible. It
// mirrors the dispatch of machine.exec for each multi-way op.
func (c *constProp) decided(n cfg.NodeID, in Env) (cfg.Label, bool) {
	op, _ := c.p.G.Node(n).Payload.(lower.Op)
	switch o := op.(type) {
	case lower.OpBranch:
		if v, ok := c.eval(in, o.Cond); ok {
			if v.B {
				return cfg.True, true
			}
			return cfg.False, true
		}
	case lower.OpArithIf:
		if v, ok := c.eval(in, o.E); ok {
			x := v.Float()
			switch {
			case x < 0:
				return lower.LabelNeg, true
			case x == 0:
				return lower.LabelZero, true
			default:
				return lower.LabelPos, true
			}
		}
	case lower.OpComputedGoto:
		if v, ok := c.eval(in, o.E); ok {
			if v.I >= 1 && v.I <= int64(o.N) {
				return lower.GotoCase(int(v.I)), true
			}
			return lower.LabelDefault, true
		}
	case lower.OpDoTest:
		if t, ok := in.get(c.trip[n]); ok {
			if t.I > 0 {
				return cfg.True, true
			}
			return cfg.False, true
		}
	}
	return "", false
}

func (c *constProp) eval(in Env, e lang.Expr) (interp.Value, bool) {
	return interp.EvalConst(c.p.Unit, e, func(x *lang.Var) (interp.Value, bool) {
		return in.get(slot(x.Sym))
	})
}

// step folds the DO step expression (nil means 1), mirroring the .I read
// machine.exec performs.
func (c *constProp) step(in Env, l *lang.DoLoop) (int64, bool) {
	if l.Step == nil {
		return 1, true
	}
	v, ok := c.eval(in, l.Step)
	return v.I, ok
}

// tripCount folds the F77 trip count of l under in with the engines'
// interp.TripCount. A zero step is a runtime error, so no trip is claimed
// for it.
func (c *constProp) tripCount(in Env, l *lang.DoLoop) (int64, bool) {
	lo, okLo := c.eval(in, l.Lo)
	hi, okHi := c.eval(in, l.Hi)
	step, okStep := c.step(in, l)
	if !okLo || !okHi || !okStep {
		return 0, false
	}
	trip, msg := interp.TripCount(lo.I, hi.I, step)
	return trip, msg == ""
}

// ValueEq is runtime value identity with NaN treated as equal to itself
// (two executions computing NaN through the same expression agree bit-wise
// for this interpreter's operations; Go's == would needlessly drop them). It
// also reports whether a statically proven value matches an observed one.
func ValueEq(a, b interp.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == lang.TReal && a.R != a.R && b.R != b.R {
		return a.I == b.I && a.B == b.B
	}
	return a == b
}

// Const is one proven constant binding.
type Const struct {
	Name string
	Val  interp.Value
}
