package dataflow

// This file keeps the map-based implementation the package shipped before
// its environments became sorted slices and its liveness and
// definite-assignment solvers bitsets: a generic worklist solver over
// []bool facts, SCCP over map[string]interp.Value environments, and the
// encoder that wrote them. It is the reference the differential test
// (TestDifferentialAgainstReference) holds Analyze to, byte for byte on
// Facts.Encode. Keep it as it is: it is the specification, not code to
// maintain.

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/wire"
)

// refDirection orients an analysis along or against the control flow.
type refDirection int

// Analysis directions.
const (
	refForward refDirection = iota
	refBackward
)

// refAnalysis is the monotone framework interface: a lattice of facts F with a
// meet, plus a transfer function per node. Top must be the meet identity
// (Meet(Top, x) = x) and Transfer must be monotone for the solver to
// terminate at the least fixpoint.
type refAnalysis[F any] interface {
	refDirection() refDirection
	// Boundary is the fact at the procedure boundary: the entry node's
	// input for a forward analysis, the exit node's for a backward one.
	Boundary() F
	// Top is the initial fact of every other node and the meet identity.
	Top() F
	Meet(a, b F) F
	// Transfer computes the node's output fact from its input fact.
	Transfer(n cfg.NodeID, in F) F
	Equal(a, b F) bool
}

// refSolution holds the fixpoint facts. In[n] is the meet-over-edges fact
// flowing INTO node n: its entry fact for a forward analysis, its exit fact
// for a backward one. Apply Transfer to obtain the other side.
type refSolution[F any] struct {
	In []F
}

// refSolve runs the worklist to the least fixpoint. Iteration order is
// deterministic: nodes are prioritized by reverse postorder (forward) or
// postorder (backward) of a DFS that follows out-edges in insertion order,
// so two runs over the same graph always visit nodes identically.
func refSolve[F any](g *cfg.Graph, a refAnalysis[F]) *refSolution[F] {
	sol := &refSolution[F]{In: make([]F, g.MaxID()+1)}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		sol.In[id] = a.Top()
	}
	boundary := g.Entry
	next := func(n cfg.NodeID) []cfg.Edge { return g.OutEdges(n) }
	if a.refDirection() == refBackward {
		boundary = g.Exit
		next = func(n cfg.NodeID) []cfg.Edge { return g.InEdges(n) }
	}
	sol.In[boundary] = a.Boundary()
	wl := newRefWorklist(refPriorities(g, a.refDirection()))
	// Seed every node, not just the boundary: a node whose input fact never
	// changes from Top still generates facts locally (its gen set) that
	// must reach its neighbors once.
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if g.Node(id) != nil {
			wl.push(id)
		}
	}
	for {
		n, ok := wl.pop()
		if !ok {
			return sol
		}
		out := a.Transfer(n, sol.In[n])
		for _, e := range next(n) {
			t := e.To
			if a.refDirection() == refBackward {
				t = e.From
			}
			merged := a.Meet(sol.In[t], out)
			if !a.Equal(merged, sol.In[t]) {
				sol.In[t] = merged
				wl.push(t)
			}
		}
	}
}

// refPriorities assigns each node its worklist priority: its reverse postorder
// index for forward analyses, its postorder index for backward ones. Nodes
// unreachable from the entry (none exist in validated graphs, but hand-built
// test graphs may have them) sort after all reachable nodes, in ID order.
func refPriorities(g *cfg.Graph, dir refDirection) []int {
	post := refPostorder(g)
	prio := make([]int, g.MaxID()+1)
	for i := range prio {
		prio[i] = -1
	}
	if dir == refForward {
		for i, n := range post {
			prio[n] = len(post) - 1 - i
		}
	} else {
		for i, n := range post {
			prio[n] = i
		}
	}
	nextPrio := len(post)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if prio[id] < 0 {
			prio[id] = nextPrio
			nextPrio++
		}
	}
	return prio
}

// refPostorder returns the DFS postorder of the nodes reachable from the
// entry, following out-edges in insertion order, with an explicit stack.
func refPostorder(g *cfg.Graph) []cfg.NodeID {
	type item struct {
		n    cfg.NodeID
		edge int
	}
	seen := make([]bool, g.MaxID()+1)
	var order []cfg.NodeID
	if g.Node(g.Entry) == nil {
		return order
	}
	stack := []item{{n: g.Entry}}
	seen[g.Entry] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		out := g.OutEdges(top.n)
		if top.edge < len(out) {
			t := out[top.edge].To
			top.edge++
			if !seen[t] {
				seen[t] = true
				stack = append(stack, item{n: t})
			}
			continue
		}
		order = append(order, top.n)
		stack = stack[:len(stack)-1]
	}
	return order
}

// refWorklist is a deterministic priority worklist: pop returns the pending
// node with the smallest priority, and a node is pending at most once.
type refWorklist struct {
	prio    []int
	heap    []cfg.NodeID
	pending []bool
}

func newRefWorklist(prio []int) *refWorklist {
	return &refWorklist{prio: prio, pending: make([]bool, len(prio))}
}

func (w *refWorklist) push(n cfg.NodeID) {
	if w.pending[n] {
		return
	}
	w.pending[n] = true
	heap.Push(w, n)
}

func (w *refWorklist) pop() (cfg.NodeID, bool) {
	if len(w.heap) == 0 {
		return cfg.None, false
	}
	n := heap.Pop(w).(cfg.NodeID)
	w.pending[n] = false
	return n, true
}

// heap.Interface.
func (w *refWorklist) Len() int           { return len(w.heap) }
func (w *refWorklist) Less(i, j int) bool { return w.prio[w.heap[i]] < w.prio[w.heap[j]] }
func (w *refWorklist) Swap(i, j int)      { w.heap[i], w.heap[j] = w.heap[j], w.heap[i] }
func (w *refWorklist) Push(x any)         { w.heap = append(w.heap, x.(cfg.NodeID)) }
func (w *refWorklist) Pop() any {
	n := w.heap[len(w.heap)-1]
	w.heap = w.heap[:len(w.heap)-1]
	return n
}

// refVarSet is a dense bit-vector fact over the procedure's tracked scalars.
type refVarSet []bool

// refVars enumerates a procedure's tracked scalar names in sorted order and
// per-node use/def events. Uses are may-uses; defs are must-defs (a CALL
// never defs for liveness — the callee might not write — and array element
// stores never def the array).
type refVars struct {
	p     *lower.Proc
	names []string
	index map[string]int
	param []bool
	local []bool
	use   []refVarSet // per node
	def   []refVarSet // per node
	// defVar[n] is the single scalar a node must-defs, or -1. Only
	// OpAssign defs are source-level stores (candidates for the dead-store
	// lint); DO machinery defs are marked but not lintable.
	defVar   []int
	lintable []bool
}

func newRefVars(p *lower.Proc) *refVars {
	v := &refVars{p: p, index: make(map[string]int)}
	if p.Unit != nil {
		for name, sym := range p.Unit.Symbols {
			if sym.Kind == lang.SymScalar {
				v.names = append(v.names, name)
			}
		}
	}
	sort.Strings(v.names)
	v.param = make([]bool, len(v.names))
	v.local = make([]bool, len(v.names))
	for i, name := range v.names {
		v.index[name] = i
		sym := p.Unit.Symbols[name]
		v.param[i] = sym.IsParam
		v.local[i] = !sym.IsParam
	}
	g := p.G
	v.use = make([]refVarSet, g.MaxID()+1)
	v.def = make([]refVarSet, g.MaxID()+1)
	v.defVar = make([]int, g.MaxID()+1)
	v.lintable = make([]bool, g.MaxID()+1)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		v.defVar[id] = -1
		v.use[id] = make(refVarSet, len(v.names))
		v.def[id] = make(refVarSet, len(v.names))
		v.events(id)
	}
	return v
}

// events fills the use/def sets of node n from its op payload.
func (v *refVars) events(n cfg.NodeID) {
	op, _ := v.p.G.Node(n).Payload.(lower.Op)
	useExpr := func(e lang.Expr) { refExprVars(e, func(name string) { v.mark(v.use[n], name) }) }
	switch o := op.(type) {
	case lower.OpAssign:
		useExpr(o.S.RHS)
		switch lhs := o.S.LHS.(type) {
		case *lang.Var:
			if i, ok := v.scalar(lhs.Name); ok {
				v.def[n][i] = true
				v.defVar[n] = i
				v.lintable[n] = true
			}
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
		if i, ok := v.scalar(o.L.Var); ok {
			v.def[n][i] = true
			v.defVar[n] = i
		}
	case lower.OpDoIncr:
		if o.L.Step != nil {
			useExpr(o.L.Step)
		}
		// The increment reads the loop variable before writing it.
		v.mark(v.use[n], o.L.Var)
		if i, ok := v.scalar(o.L.Var); ok {
			v.def[n][i] = true
			v.defVar[n] = i
		}
	case lower.OpCall:
		for _, arg := range o.S.Args {
			useExpr(arg)
		}
	case lower.OpPrint:
		for _, e := range o.S.Items {
			useExpr(e)
		}
	}
}

func (v *refVars) scalar(name string) (int, bool) {
	i, ok := v.index[name]
	return i, ok
}

func (v *refVars) mark(set refVarSet, name string) {
	if i, ok := v.index[name]; ok {
		set[i] = true
	}
}

// refExprVars calls fn for every lang.Var leaf of e (array subscripts
// included; whole-array references pass through fn and are filtered by the
// scalar index).
func refExprVars(e lang.Expr, fn func(string)) {
	switch x := e.(type) {
	case *lang.Var:
		fn(x.Name)
	case *lang.Index:
		fn(x.Name)
		for _, s := range x.Subs {
			refExprVars(s, fn)
		}
	case *lang.Un:
		refExprVars(x.X, fn)
	case *lang.Bin:
		refExprVars(x.L, fn)
		refExprVars(x.R, fn)
	case *lang.Intrinsic:
		for _, a := range x.Args {
			refExprVars(a, fn)
		}
	}
}

// refLiveness is the backward may-live analysis: a scalar is live at a point
// when some path from it reaches a use before a must-def. The boundary
// keeps parameters live (stores through a by-reference parameter are
// visible to the caller).
type refLiveness struct{ v *refVars }

func (l refLiveness) refDirection() refDirection { return refBackward }

func (l refLiveness) Top() refVarSet { return make(refVarSet, len(l.v.names)) }

func (l refLiveness) Boundary() refVarSet {
	out := make(refVarSet, len(l.v.names))
	copy(out, l.v.param)
	return out
}

func (l refLiveness) Meet(a, b refVarSet) refVarSet {
	out := make(refVarSet, len(a))
	for i := range a {
		out[i] = a[i] || b[i]
	}
	return out
}

func (l refLiveness) Transfer(n cfg.NodeID, out refVarSet) refVarSet {
	in := make(refVarSet, len(out))
	for i := range out {
		in[i] = l.v.use[n][i] || (out[i] && !l.v.def[n][i])
	}
	return in
}

func (l refLiveness) Equal(a, b refVarSet) bool { return refSetEq(a, b) }

// refDefassign is the forward definite-assignment analysis: the set of locals
// assigned on every path from entry. Meet is intersection, so Top is the
// full universe. A scalar passed bare to a CALL counts as assigned — the
// callee may write it, and warning on later reads would be noise.
type refDefassign struct{ v *refVars }

func (d refDefassign) refDirection() refDirection { return refForward }

func (d refDefassign) Top() refVarSet {
	out := make(refVarSet, len(d.v.names))
	for i := range out {
		out[i] = true
	}
	return out
}

func (d refDefassign) Boundary() refVarSet { return make(refVarSet, len(d.v.names)) }

func (d refDefassign) Meet(a, b refVarSet) refVarSet {
	out := make(refVarSet, len(a))
	for i := range a {
		out[i] = a[i] && b[i]
	}
	return out
}

func (d refDefassign) Transfer(n cfg.NodeID, in refVarSet) refVarSet {
	out := make(refVarSet, len(in))
	copy(out, in)
	for i := range out {
		if d.v.def[n][i] {
			out[i] = true
		}
	}
	if op, ok := d.v.p.G.Node(n).Payload.(lower.OpCall); ok {
		for _, arg := range op.S.Args {
			if vr, ok := arg.(*lang.Var); ok {
				if i, ok := d.v.scalar(vr.Name); ok {
					out[i] = true
				}
			}
		}
	}
	return out
}

func (d refDefassign) Equal(a, b refVarSet) bool { return refSetEq(a, b) }

func refSetEq(a, b refVarSet) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refEnv maps scalar names to their proven-constant runtime value at a program
// point. Absence means "varying"; a nil refEnv means the point is unreached.
// Besides source scalars the map carries one pseudo variable per DO loop —
// the hidden trip register the interpreter keys by the test node — under a
// name refTripKey produces (never a legal identifier).
type refEnv map[string]interp.Value

// refTripKeyPrefix starts every pseudo-variable name; '\x00' cannot occur in a
// Fortran identifier.
const refTripKeyPrefix = "\x00trip@"

// refTripKey names the pseudo variable tracking the hidden trip register of
// the DO loop whose test node is test.
func refTripKey(test cfg.NodeID) string { return fmt.Sprintf("%s%d", refTripKeyPrefix, test) }

// refConstProp is the conditional constant propagation state: an SCCP-style
// client of the framework that interleaves constant tracking with edge
// feasibility, so constants are only merged over edges that can execute.
type refConstProp struct {
	p *lower.Proc
	// env[n] is the constant environment at node entry; nil = unreached.
	env []refEnv
	// feasible[n][k] marks the k-th out-edge of n (OutEdges order) as
	// executable under the facts proven so far.
	feasible [][]bool
}

// runRefConstProp computes the SCCP fixpoint for p. The iteration order is the
// same deterministic reverse-postorder priority the generic solver uses;
// the edge-level worklist is what makes the propagation *conditional*:
// successors are only (re)visited through edges proven executable.
func runRefConstProp(p *lower.Proc) *refConstProp {
	g := p.G
	c := &refConstProp{
		p:        p,
		env:      make([]refEnv, g.MaxID()+1),
		feasible: make([][]bool, g.MaxID()+1),
	}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		c.feasible[id] = make([]bool, len(g.OutEdges(id)))
	}
	wl := newRefWorklist(refPriorities(g, refForward))
	c.env[g.Entry] = c.boundary()
	wl.push(g.Entry)
	for {
		n, ok := wl.pop()
		if !ok {
			return c
		}
		in := c.env[n]
		out := c.transfer(n, in)
		labels := c.feasibleLabels(n, in)
		for k, e := range g.OutEdges(n) {
			if labels != nil && !refHasLabel(labels, e.Label) {
				continue
			}
			newlyFeasible := !c.feasible[n][k]
			c.feasible[n][k] = true
			t := e.To
			merged, changed := refMeetEnv(c.env[t], out)
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
func (c *refConstProp) boundary() refEnv {
	env := make(refEnv)
	if c.p.Unit == nil { // hand-built test graphs carry no symbol table
		return env
	}
	for name, sym := range c.p.Unit.Symbols {
		if sym.Kind == lang.SymScalar && !sym.IsParam {
			env[name] = interp.Value{T: sym.Type}
		}
	}
	return env
}

// transfer computes the node-exit environment, mirroring machine.exec's
// state effects (including the Convert each store applies). The input map
// is never mutated; an unchanged environment is returned as-is.
func (c *refConstProp) transfer(n cfg.NodeID, in refEnv) refEnv {
	op, _ := c.p.G.Node(n).Payload.(lower.Op)
	switch o := op.(type) {
	case lower.OpAssign:
		lhs, ok := o.S.LHS.(*lang.Var)
		if !ok {
			return in // array element stores are not tracked
		}
		if v, ok := c.eval(in, o.S.RHS); ok {
			if cv, ok := c.stored(lhs.Name, v); ok {
				return in.with(lhs.Name, cv)
			}
		}
		return in.without(lhs.Name)
	case lower.OpDoInit:
		out := in
		if lo, ok := c.eval(in, o.L.Lo); ok {
			// machine.exec stores Int(lo.I) through setScalar's Convert.
			if cv, ok := c.stored(o.L.Var, interp.Int(lo.I)); ok {
				out = out.with(o.L.Var, cv)
			} else {
				out = out.without(o.L.Var)
			}
		} else {
			out = out.without(o.L.Var)
		}
		if trip, ok := c.trip(in, o.L); ok {
			return out.with(refTripKey(o.Test), interp.Int(trip))
		}
		return out.without(refTripKey(o.Test))
	case lower.OpDoIncr:
		out := in
		cur, okCur := in[o.L.Var]
		step, okStep := c.step(in, o.L)
		if okCur && okStep {
			if cv, ok := c.stored(o.L.Var, interp.Int(cur.I+step)); ok {
				out = out.with(o.L.Var, cv)
			} else {
				out = out.without(o.L.Var)
			}
		} else {
			out = out.without(o.L.Var)
		}
		key := refTripKey(o.Test)
		if t, ok := out[key]; ok {
			return out.with(key, interp.Int(t.I-1))
		}
		return out
	case lower.OpCall:
		// Scalar variables passed as bare arguments are bound by reference;
		// the callee may overwrite them. Everything else is a copy (or an
		// untracked array).
		out := in
		for _, arg := range o.S.Args {
			if v, ok := arg.(*lang.Var); ok {
				if sym := c.sym(v.Name); sym != nil && sym.Kind == lang.SymScalar {
					out = out.without(v.Name)
				}
			}
		}
		return out
	}
	return in
}

// feasibleLabels returns the out-edge labels node n can take under the
// environment in, or nil when every label remains possible. It mirrors the
// dispatch of machine.exec for each multi-way op.
func (c *refConstProp) feasibleLabels(n cfg.NodeID, in refEnv) []cfg.Label {
	op, _ := c.p.G.Node(n).Payload.(lower.Op)
	switch o := op.(type) {
	case lower.OpBranch:
		if v, ok := c.eval(in, o.Cond); ok {
			if v.B {
				return []cfg.Label{cfg.True}
			}
			return []cfg.Label{cfg.False}
		}
	case lower.OpArithIf:
		if v, ok := c.eval(in, o.E); ok {
			x := v.Float()
			switch {
			case x < 0:
				return []cfg.Label{lower.LabelNeg}
			case x == 0:
				return []cfg.Label{lower.LabelZero}
			default:
				return []cfg.Label{lower.LabelPos}
			}
		}
	case lower.OpComputedGoto:
		if v, ok := c.eval(in, o.E); ok {
			if v.I >= 1 && v.I <= int64(o.N) {
				return []cfg.Label{lower.GotoCase(int(v.I))}
			}
			return []cfg.Label{lower.LabelDefault}
		}
	case lower.OpDoTest:
		if t, ok := in[refTripKey(o.Key)]; ok {
			if t.I > 0 {
				return []cfg.Label{cfg.True}
			}
			return []cfg.Label{cfg.False}
		}
	}
	return nil
}

func (c *refConstProp) eval(in refEnv, e lang.Expr) (interp.Value, bool) {
	return interp.EvalConst(c.p.Unit, e, func(x *lang.Var) (interp.Value, bool) {
		v, ok := in[x.Name]
		return v, ok
	})
}

// stored applies the conversion a runtime store to name performs. Stores to
// by-reference parameters land in a caller cell whose type is not visible
// here, so no constant survives them.
func (c *refConstProp) stored(name string, v interp.Value) (interp.Value, bool) {
	sym := c.sym(name)
	if sym == nil || sym.Kind != lang.SymScalar || sym.IsParam {
		return interp.Value{}, false
	}
	return interp.Convert(v, sym.Type), true
}

// sym looks name up in the unit's symbol table, tolerating hand-built
// procedures without one.
func (c *refConstProp) sym(name string) *lang.Symbol {
	if c.p.Unit == nil {
		return nil
	}
	return c.p.Unit.Symbols[name]
}

// step folds the DO step expression (nil means 1), mirroring the .I read
// machine.exec performs.
func (c *refConstProp) step(in refEnv, l *lang.DoLoop) (int64, bool) {
	if l.Step == nil {
		return 1, true
	}
	v, ok := c.eval(in, l.Step)
	if !ok {
		return 0, false
	}
	return v.I, true
}

// trip folds the F77 trip count of l under in, mirroring machine.tripCount:
// MAX(0, (hi.I-lo.I+step)/step). A zero step is a runtime error, so no trip
// is claimed for it.
func (c *refConstProp) trip(in refEnv, l *lang.DoLoop) (int64, bool) {
	lo, okLo := c.eval(in, l.Lo)
	hi, okHi := c.eval(in, l.Hi)
	step, okStep := c.step(in, l)
	if !okLo || !okHi || !okStep || step == 0 {
		return 0, false
	}
	trip := (hi.I - lo.I + step) / step
	if trip < 0 {
		trip = 0
	}
	return trip, true
}

// with returns e extended/updated with name=v, copying on write.
func (e refEnv) with(name string, v interp.Value) refEnv {
	if old, ok := e[name]; ok && refValueEq(old, v) {
		return e
	}
	out := make(refEnv, len(e)+1)
	for k, val := range e {
		out[k] = val
	}
	out[name] = v
	return out
}

// without returns e with name removed, copying on write.
func (e refEnv) without(name string) refEnv {
	if _, ok := e[name]; !ok {
		return e
	}
	out := make(refEnv, len(e))
	for k, val := range e {
		if k != name {
			out[k] = val
		}
	}
	return out
}

// refMeetEnv intersects two environments, keeping only bindings present and
// equal in both. A nil old environment (unreached) adopts the incoming one.
func refMeetEnv(old, in refEnv) (refEnv, bool) {
	if old == nil {
		if in == nil {
			in = refEnv{}
		}
		return in, true
	}
	changed := false
	out := old
	for k, v := range old {
		nv, ok := in[k]
		if !ok || !refValueEq(nv, v) {
			if !changed {
				out = make(refEnv, len(old))
				for k2, v2 := range old {
					out[k2] = v2
				}
				changed = true
			}
			delete(out, k)
		}
	}
	return out, changed
}

// refValueEq is runtime value identity with NaN treated as equal to itself
// (two executions computing NaN through the same expression agree bit-wise
// for this interpreter's operations; Go's == would needlessly drop them).
func refValueEq(a, b interp.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == lang.TReal && a.R != a.R && b.R != b.R {
		return a.I == b.I && a.B == b.B
	}
	return a == b
}

func refHasLabel(labels []cfg.Label, l cfg.Label) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
}

// refFacts are the combined per-procedure results of the client analyses. All
// slices are in deterministic (node ID, then variable name) order. Every
// claim here is dynamically checkable: the oracle's dataflow-sound invariant
// asserts each one against profiled runs.
type refFacts struct {
	Proc *lower.Proc

	// refEnv[n] is the constant environment at entry to node n; nil marks a
	// node the conditional constant propagation proved unreachable.
	refEnv []refEnv
	// Reached[n] reports whether n is reachable under propagated constants.
	Reached []bool

	// Infeasible lists the CFG edges proven never taken.
	Infeasible []cfg.Edge
	// ConstBranch maps each reached multi-way node with exactly one
	// feasible out-edge to that edge's label.
	ConstBranch map[cfg.NodeID]cfg.Label
	// ConstTrips maps a DO loop's test node to its proven constant trip
	// count: every execution of the loop's DoInit computes this many trips.
	// Node-split DoInit copies sharing a test must agree or the test is
	// dropped.
	ConstTrips map[cfg.NodeID]int64

	// DeadNodes are flow-unreached nodes with source statements, restricted
	// to the frontier (at least one reached predecessor) to avoid cascades.
	DeadNodes []cfg.NodeID
	// DeadStores flags scalar assignments whose value no later path reads.
	DeadStores []Finding
	// UseBeforeDef flags reads of locals not assigned on every path from
	// entry (the interpreter zero-initializes them, so these are warnings).
	UseBeforeDef []Finding
}

// refAnalyze runs all client analyses over p's lowered CFG and assembles their
// facts. It is deterministic: identical procedures yield identical refFacts.
func refAnalyze(p *lower.Proc) *refFacts {
	c := runRefConstProp(p)
	f := &refFacts{
		Proc:        p,
		refEnv:      c.env,
		Reached:     make([]bool, len(c.env)),
		ConstBranch: make(map[cfg.NodeID]cfg.Label),
		ConstTrips:  make(map[cfg.NodeID]int64),
	}
	for n := range c.env {
		f.Reached[n] = c.env[n] != nil
	}
	f.deriveEdges(c)
	f.deriveTrips(c)
	f.deriveDeadNodes()
	v := newRefVars(p)
	f.deriveDeadStores(v)
	f.deriveUseBeforeDef(v)
	return f
}

// deriveEdges collects infeasible edges and single-successor branches from
// the SCCP feasibility bitmap, in node-ID then out-edge order.
func (f *refFacts) deriveEdges(c *refConstProp) {
	g := f.Proc.G
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		out := g.OutEdges(id)
		feasibleCount := 0
		var only cfg.Label
		for k, e := range out {
			if c.feasible[id][k] {
				feasibleCount++
				only = e.Label
			} else {
				f.Infeasible = append(f.Infeasible, e)
			}
		}
		if f.Reached[id] && len(out) >= 2 && feasibleCount == 1 {
			f.ConstBranch[id] = only
		}
	}
}

// deriveTrips folds each reached DoInit's trip count under its entry
// environment; node-split copies sharing a test node must all fold to the
// same value or the test is dropped.
func (f *refFacts) deriveTrips(c *refConstProp) {
	bad := make(map[cfg.NodeID]bool)
	g := f.Proc.G
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		o, ok := g.Node(id).Payload.(lower.OpDoInit)
		if !ok || !f.Reached[id] {
			continue
		}
		trip, folded := c.trip(c.env[id], o.L)
		if bad[o.Test] || !folded {
			bad[o.Test] = true
			delete(f.ConstTrips, o.Test)
			continue
		}
		if prev, seen := f.ConstTrips[o.Test]; seen && prev != trip {
			bad[o.Test] = true
			delete(f.ConstTrips, o.Test)
			continue
		}
		f.ConstTrips[o.Test] = trip
	}
}

// deriveDeadNodes lists flow-unreached statement nodes on the reachability
// frontier. Node splitting may duplicate a statement; its source is only
// dead when no copy is reached, and is reported once.
func (f *refFacts) deriveDeadNodes() {
	g := f.Proc.G
	reachedStmt := make(map[lang.Stmt]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if f.Reached[id] && f.Proc.Stmt[id] != nil {
			reachedStmt[f.Proc.Stmt[id]] = true
		}
	}
	seen := make(map[lang.Stmt]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		s := f.Proc.Stmt[id]
		if f.Reached[id] || g.Node(id) == nil || s == nil || reachedStmt[s] || seen[s] {
			continue
		}
		frontier := false
		for _, e := range g.InEdges(id) {
			if f.Reached[e.From] {
				frontier = true
				break
			}
		}
		if frontier {
			seen[s] = true
			f.DeadNodes = append(f.DeadNodes, id)
		}
	}
}

// deriveDeadStores runs the backward liveness analysis and flags reached
// source-level scalar assignments whose target is dead after the store. A
// node-split statement is flagged only when the store is dead at every
// reached copy, and reported once.
func (f *refFacts) deriveDeadStores(v *refVars) {
	sol := refSolve(f.Proc.G, refLiveness{v: v})
	g := f.Proc.G
	liveStmt := make(map[lang.Stmt]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if !f.Reached[id] || !v.lintable[id] {
			continue
		}
		// sol.In is the fact flowing into the node along the analysis
		// direction; for a backward analysis that is the live-out set.
		if i := v.defVar[id]; i >= 0 && sol.In[id][i] {
			liveStmt[f.Proc.Stmt[id]] = true
		}
	}
	seen := make(map[lang.Stmt]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if !f.Reached[id] || !v.lintable[id] {
			continue
		}
		i := v.defVar[id]
		s := f.Proc.Stmt[id]
		if i < 0 || sol.In[id][i] || liveStmt[s] || seen[s] {
			continue
		}
		seen[s] = true
		f.DeadStores = append(f.DeadStores, f.finding(id, v.names[i],
			fmt.Sprintf("value assigned to %s is never read", v.names[i])))
	}
}

// deriveUseBeforeDef runs the forward definite-assignment analysis and flags
// reads of locals not assigned on every path from entry, once per
// (statement, variable) pair.
func (f *refFacts) deriveUseBeforeDef(v *refVars) {
	sol := refSolve(f.Proc.G, refDefassign{v: v})
	g := f.Proc.G
	type key struct {
		s lang.Stmt
		i int
	}
	seen := make(map[key]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if !f.Reached[id] {
			continue
		}
		for i, used := range v.use[id] {
			if !used || !v.local[i] || sol.In[id][i] {
				continue
			}
			k := key{f.Proc.Stmt[id], i}
			if seen[k] {
				continue
			}
			seen[k] = true
			f.UseBeforeDef = append(f.UseBeforeDef, f.finding(id, v.names[i],
				fmt.Sprintf("%s may be used before being assigned (reads as zero)", v.names[i])))
		}
	}
}

func (f *refFacts) finding(n cfg.NodeID, name, msg string) Finding {
	fd := Finding{Node: n, Var: name, Msg: msg}
	if s := f.Proc.Stmt[n]; s != nil {
		fd.Line = s.Pos()
		fd.Col = s.Column()
	}
	return fd
}

// encode serializes the facts (sans Proc, re-attached on decode). Maps are
// written in sorted key order for deterministic bytes.
func (f *refFacts) encode(w *wire.Writer) {
	w.Uvarint(uint64(len(f.refEnv)))
	for _, env := range f.refEnv {
		if env == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		names := make([]string, 0, len(env))
		for name := range env {
			names = append(names, name)
		}
		sort.Strings(names)
		w.Uvarint(uint64(len(names)))
		for _, name := range names {
			w.String(name)
			refEncodeValue(w, env[name])
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
	refEncodeNodeMap(w, f.ConstBranch, func(l cfg.Label) { w.String(string(l)) })
	refEncodeNodeMap(w, f.ConstTrips, func(t int64) { w.Varint(t) })
	w.Uvarint(uint64(len(f.DeadNodes)))
	for _, n := range f.DeadNodes {
		w.Varint(int64(n))
	}
	refEncodeFindings(w, f.DeadStores)
	refEncodeFindings(w, f.UseBeforeDef)
}

func refEncodeNodeMap[V any](w *wire.Writer, m map[cfg.NodeID]V, enc func(V)) {
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

func refEncodeFindings(w *wire.Writer, fs []Finding) {
	w.Uvarint(uint64(len(fs)))
	for _, fd := range fs {
		w.Varint(int64(fd.Node))
		w.String(fd.Var)
		w.Int(fd.Line)
		w.Int(fd.Col)
		w.String(fd.Msg)
	}
}

func refEncodeValue(w *wire.Writer, v interp.Value) {
	w.U8(uint8(v.T))
	w.Varint(v.I)
	w.F64(v.R)
	w.Bool(v.B)
}
