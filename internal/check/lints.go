package check

import (
	"repro/internal/analysis"
	"repro/internal/lang"
	"repro/internal/staticfreq"
)

// checkLints runs the source-level lints over the procedure's AST and its
// lowered form: branch conditions that fold to a compile-time constant,
// constant DO loops that never execute, and statements the lowering dropped
// as unreachable. All findings are warnings — the program is still valid —
// positioned at the offending source line/column.
func checkLints(a *analysis.Proc, r *reporter) {
	u := a.P.Unit
	if u == nil {
		return // hand-built procedures (tests, paperex) have no AST
	}

	// Live statements: everything the lowering kept a node for. Statements
	// absent from the map were dropped as dead code.
	live := make(map[lang.Stmt]bool, len(a.P.Stmt))
	for _, s := range a.P.Stmt {
		live[s] = true
	}
	// "IF (c) GOTO l" lowers to one fused branch node mapped to the
	// LogicalIf; its inner GOTO has no node of its own but is just as live.
	for _, s := range a.P.Stmt {
		if li, ok := s.(*lang.LogicalIf); ok {
			live[li.Then] = true
		}
	}

	lintBlock(u, u.Body, live, true, r)
}

// lintBlock walks one statement list. parentLive is false inside a
// statement already reported dead, so a dropped region produces one
// diagnostic at its head instead of one per statement.
func lintBlock(u *lang.Unit, body []lang.Stmt, live map[lang.Stmt]bool, parentLive bool, r *reporter) {
	for _, s := range body {
		alive := live[s]
		if parentLive && !alive {
			r.warnAt(s.Pos(), s.Column(), "remove it or make it reachable",
				"unreachable code: statement %q was dropped during lowering", s.Text())
		}
		switch st := s.(type) {
		case *lang.IfBlock:
			lintCond(u, st.Cond, st.Line, st.Col, r)
			lintBlock(u, st.Then, live, alive, r)
			for _, arm := range st.Elifs {
				lintCond(u, arm.Cond, arm.Line, 0, r)
				lintBlock(u, arm.Body, live, alive, r)
			}
			lintBlock(u, st.Else, live, alive, r)
		case *lang.LogicalIf:
			lintCond(u, st.Cond, st.Line, st.Col, r)
			lintBlock(u, []lang.Stmt{st.Then}, live, alive, r)
		case *lang.ArithIf:
			if v, ok := lang.FoldInt(u, st.Expr); ok {
				r.warnAt(st.Line, st.Col, "the other two targets are dead",
					"arithmetic IF expression is the constant %d: always branches the same way", v)
			}
		case *lang.ComputedGoto:
			if v, ok := lang.FoldInt(u, st.Expr); ok {
				r.warnAt(st.Line, st.Col, "replace it with a plain GOTO",
					"computed GOTO index is the constant %d", v)
			}
		case *lang.DoLoop:
			lintDo(u, st, r)
			lintBlock(u, st.Body, live, alive, r)
		}
	}
}

// lintCond flags IF conditions that fold at compile time.
func lintCond(u *lang.Unit, cond lang.Expr, line, col int, r *reporter) {
	if v, ok := lang.FoldLogical(u, cond); ok {
		arm := ".FALSE.: the THEN arm is dead"
		if v {
			arm = ".TRUE.: the branch is always taken"
		}
		r.warnAt(line, col, "fold the branch away", "IF condition %q is constant %s", cond.String(), arm)
	}
}

// lintDo flags constant DO loops with a non-positive trip count (including
// a constant zero step, which would never terminate).
func lintDo(u *lang.Unit, st *lang.DoLoop, r *reporter) {
	if st.Step != nil {
		if step, ok := lang.FoldInt(u, st.Step); ok && step == 0 {
			r.warnAt(st.Line, st.Col, "use a nonzero step", "DO step is the constant 0: the loop never advances")
			return
		}
	}
	if b, ok := staticfreq.FoldDo(u, st); ok && b.Trip == 0 {
		r.warnAt(st.Line, st.Col, "the body is dead at run time",
			"DO loop never executes: constant bounds %d,%d,%d give trip count %d", b.Lo, b.Hi, b.Step, b.Trip)
	}
}
