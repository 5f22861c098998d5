package check

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/profiler"
	"repro/internal/report"
)

// checkPlan builds the optimized counter placement for the procedure —
// the same flow-aware placement BuildPlans deploys — and statically proves
// it sound via VerifyPlan.
func checkPlan(a *analysis.Proc, r *reporter) {
	plan, err := profiler.PlanFlow(a)
	if err != nil {
		r.errorf(0, "no solvable counter plan: %v", err)
		return
	}
	for _, d := range VerifyPlan(plan) {
		d.Pass = r.pass
		d.Proc = r.proc
		r.diags = append(r.diags, d)
	}
}

// VerifyPlan is the counter-plan soundness proof: it encodes the plan's
// counters and inference rules as a linear system over the non-pseudo FCDG
// conditions and checks that the coefficient matrix has full column rank.
// Full rank means the system determines every TOTAL_FREQ(u,l) uniquely for
// any counter readings — independent of the runtime recovery schedule, which
// is one particular way of solving the same system.
//
// The encoding mirrors the recovery semantics exactly:
//
//   - a condition counter contributes the equation x_c = reading;
//   - exec(u), wherever a rule mentions it, expands to the sum of u's FCDG
//     in-edge conditions (pseudo conditions are identically zero), and
//     exec(START) to the START run counter;
//   - branch balance:  x_dropped + Σ x_others − exec(u)          = 0
//   - loop identity:   x_(ph,U) − exec(ph) − Σ taking(back edge) = 0
//   - static freq:     x_dropped − k·exec(u)                     = 0
//   - constant DO:     x_(ph,U) − (trip+1)·exec(ph)              = 0
//     plus x_(test,T) − trip·exec(ph) = 0 and x_(test,F) − exec(ph) = 0
//   - TripAdd DO:      x_(ph,U) − exec(ph) = reading, x_(test,T) = reading,
//     and x_(test,F) − exec(ph) = 0.
//
// It returns one error diagnostic per condition left undetermined (free
// column), or nil when the plan is certified.
func VerifyPlan(p *profiler.Plan) []report.Diagnostic {
	if p.Naive {
		return nil // naive plans count blocks, not conditions: nothing to certify
	}
	rules := p.Rules()
	s := newLinsys(p)
	// Size the row slab: a condition counter adds one equation, a DO rule
	// one per loop condition it derives, and any other rule one.
	rows := len(rules)
	for _, c := range p.Counters {
		if c.Kind == profiler.CondCounter {
			rows++
		}
	}
	for _, r := range rules {
		if r.Kind == profiler.RuleDoConstTrip || r.Kind == profiler.RuleDoAddTrip {
			if s.has(cdg.Condition{Node: r.Node, Label: cfg.True}) {
				rows++
			}
			if s.has(cdg.Condition{Node: r.Node, Label: cfg.False}) {
				rows++
			}
		}
	}
	s.slab = make([]float64, rows*len(s.conds))
	for _, c := range p.Counters {
		if c.Kind == profiler.CondCounter {
			row := s.row()
			s.addCond(row, c.Cond, 1)
			s.rows = append(s.rows, row)
		}
	}
	for _, r := range rules {
		s.addRule(r)
	}
	free := s.freeColumns()
	var diags []report.Diagnostic
	for _, col := range free {
		c := s.conds[col]
		diags = append(diags, report.Diagnostic{
			Severity: report.Error,
			Node:     int(c.Node),
			Message:  "counter plan does not determine condition " + c.String() + " uniquely",
			Hint:     "the placement's rules are rank-deficient; file a profiler bug",
		})
	}
	return diags
}

// linsys accumulates equation rows over the plan's condition unknowns.
type linsys struct {
	p     *profiler.Plan
	conds []cdg.Condition
	ci    map[cdg.Condition]int
	rows  [][]float64
	// slab holds the zeroed rows row has not handed out yet.
	slab []float64
}

func newLinsys(p *profiler.Plan) *linsys {
	conds := p.Conds()
	ci := make(map[cdg.Condition]int, len(conds))
	for i, c := range conds {
		ci[c] = i
	}
	return &linsys{p: p, conds: conds, ci: ci}
}

// row returns a fresh zeroed row, carved from the slab.
func (s *linsys) row() []float64 {
	n := len(s.conds)
	r := s.slab[:n:n]
	s.slab = s.slab[n:]
	return r
}

// addCond adds scale·x_c to the row; pseudo conditions are identically zero
// and contribute nothing. It reports whether the condition was representable
// (a real unknown or a pseudo constant).
func (s *linsys) addCond(row []float64, c cdg.Condition, scale float64) bool {
	if c.Label.IsPseudo() {
		return true
	}
	i, ok := s.ci[c]
	if !ok {
		return false
	}
	row[i] += scale
	return true
}

// addExec adds scale·exec(u) to the row, expanding exec to the FCDG in-edge
// conditions (or the START run counter for the root).
func (s *linsys) addExec(row []float64, u cfg.NodeID, scale float64) bool {
	f := s.p.A.FCDG
	if u == f.Root {
		return s.addCond(row, cdg.Condition{Node: f.Root, Label: cfg.Uncond}, scale)
	}
	in := f.InEdges(u)
	if len(in) == 0 {
		return false
	}
	for _, e := range in {
		if !s.addCond(row, cdg.Condition{Node: e.From, Label: e.Label}, scale) {
			return false
		}
	}
	return true
}

// addTaking adds scale·taking(be) for a CFG back edge, mirroring the
// recovery schedule: the edge's own condition when it is one, otherwise
// exec(source) when the source is single-exit.
func (s *linsys) addTaking(row []float64, be cfg.Edge, scale float64) bool {
	c := cdg.Condition{Node: be.From, Label: be.Label}
	if _, ok := s.ci[c]; ok || c.Label.IsPseudo() {
		return s.addCond(row, c, scale)
	}
	labels := 0
	for _, l := range s.p.A.Ext.G.Labels(be.From) {
		if !l.IsPseudo() {
			labels++
		}
	}
	if labels == 1 {
		return s.addExec(row, be.From, scale)
	}
	return false
}

func (s *linsys) addRule(r profiler.Rule) {
	ext := s.p.A.Ext
	switch r.Kind {
	case profiler.RuleBranchBalance:
		row := s.row()
		ok := s.addCond(row, r.Dropped, 1)
		for _, o := range r.Others {
			ok = s.addCond(row, o, 1) && ok
		}
		ok = s.addExec(row, r.Node, -1) && ok
		if ok {
			s.rows = append(s.rows, row)
		}

	case profiler.RuleLoopIdentity:
		ph := ext.Preheader[r.Node]
		row := s.row()
		ok := s.addCond(row, cdg.Condition{Node: ph, Label: cfg.Uncond}, 1)
		ok = s.addExec(row, ph, -1) && ok
		for _, be := range r.BackEdges {
			ok = s.addTaking(row, be, -1) && ok
		}
		if ok {
			s.rows = append(s.rows, row)
		}

	case profiler.RuleStaticCond:
		row := s.row()
		ok := s.addCond(row, r.Dropped, 1)
		ok = s.addExec(row, r.Node, -r.StaticFreq) && ok
		if ok {
			s.rows = append(s.rows, row)
		}

	case profiler.RuleDoConstTrip, profiler.RuleDoAddTrip:
		ph := ext.Preheader[r.Node]
		// Loop condition equation.
		row := s.row()
		ok := s.addCond(row, cdg.Condition{Node: ph, Label: cfg.Uncond}, 1)
		scale := -1.0 // TripAdd: x_(ph,U) − exec(ph) = reading
		if r.Kind == profiler.RuleDoConstTrip {
			scale = -float64(r.Trip + 1) // x_(ph,U) = (trip+1)·exec(ph)
		}
		ok = s.addExec(row, ph, scale) && ok
		if ok {
			s.rows = append(s.rows, row)
		}
		// Body-entry condition (test,T).
		if bodyCond := (cdg.Condition{Node: r.Node, Label: cfg.True}); s.has(bodyCond) {
			row := s.row()
			ok := s.addCond(row, bodyCond, 1)
			if r.Kind == profiler.RuleDoConstTrip {
				ok = s.addExec(row, ph, -float64(r.Trip)) && ok
			}
			// TripAdd: x_(test,T) = reading — the row is just x_(test,T).
			if ok {
				s.rows = append(s.rows, row)
			}
		}
		// Exit condition (test,F) = exec(ph).
		if exitCond := (cdg.Condition{Node: r.Node, Label: cfg.False}); s.has(exitCond) {
			row := s.row()
			ok := s.addCond(row, exitCond, 1)
			ok = s.addExec(row, ph, -1) && ok
			if ok {
				s.rows = append(s.rows, row)
			}
		}
	}
}

func (s *linsys) has(c cdg.Condition) bool {
	_, ok := s.ci[c]
	return ok
}

// freeColumns runs Gaussian elimination and returns the indices of columns
// without a pivot — the conditions the system does not determine. An empty
// result means full column rank, i.e. a unique solution for any readings.
func (s *linsys) freeColumns() []int {
	n := len(s.conds)
	rows := s.rows
	maxAbs := 1.0
	for _, row := range rows {
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	eps := 1e-9 * maxAbs
	var free []int
	top := 0
	for col := 0; col < n; col++ {
		// Partial pivoting.
		pivot, best := -1, eps
		for i := top; i < len(rows); i++ {
			if a := math.Abs(rows[i][col]); a > best {
				pivot, best = i, a
			}
		}
		if pivot < 0 {
			free = append(free, col)
			continue
		}
		rows[top], rows[pivot] = rows[pivot], rows[top]
		pr := rows[top]
		for i := top + 1; i < len(rows); i++ {
			if rows[i][col] == 0 {
				continue
			}
			f := rows[i][col] / pr[col]
			for j := col; j < n; j++ {
				rows[i][j] -= f * pr[j]
			}
		}
		top++
	}
	return free
}
