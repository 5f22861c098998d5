package lang_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/simplecfd"
)

// TestSemaResolvesEveryReference checks that semantic analysis resolves
// every name once: every Var and Index carries its unit's symbol, every
// DO loop its variable's symbol, and each unit's slots number its symbols
// 0..n-1 in sorted-name order. Engines index frames by these without a
// fallback, so one missed reference would crash a run.
func TestSemaResolvesEveryReference(t *testing.T) {
	srcs := corpus.Digest(t) // the examples plus the generated corpus
	srcs["table1/SIMPLE"] = simplecfd.Source(100, 10)
	srcs["table1/LOOPS"] = livermore.Source(100, 1)
	refs := 0
	for name, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, u := range prog.Units {
			checkSlots(t, name, u)
			visit := func(e lang.Expr) {
				walkExpr(e, func(e lang.Expr) {
					var ref string
					var sym *lang.Symbol
					switch x := e.(type) {
					case *lang.Var:
						ref, sym = x.Name, x.Sym
					case *lang.Index:
						ref, sym = x.Name, x.Sym
					default:
						return
					}
					refs++
					if want := u.Symbols[ref]; sym == nil || sym != want {
						t.Errorf("%s: unit %s: %s resolves to %p, want %p", name, u.Name, e, sym, want)
					}
				})
			}
			for _, c := range u.Consts {
				visit(c.Value)
			}
			for _, d := range u.Decls {
				for _, it := range d.Items {
					for _, dim := range it.Dims {
						visit(dim)
					}
				}
			}
			lang.Walk(u.Body, func(s lang.Stmt) {
				if do, ok := s.(*lang.DoLoop); ok {
					if want := u.Symbols[do.Var]; do.VarSym == nil || do.VarSym != want {
						t.Errorf("%s: unit %s line %d: DO variable %s resolves to %p, want %p",
							name, u.Name, do.Line, do.Var, do.VarSym, want)
					}
				}
				for _, e := range stmtExprs(s) {
					visit(e)
				}
			})
		}
	}
	if refs == 0 {
		t.Fatal("the walk found no references")
	}
}

func checkSlots(t *testing.T, prog string, u *lang.Unit) {
	t.Helper()
	names := make([]string, 0, len(u.Symbols))
	for name := range u.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(u.Slots) != len(names) {
		t.Fatalf("%s: unit %s: %d slots for %d symbols", prog, u.Name, len(u.Slots), len(names))
	}
	for i, name := range names {
		sym := u.Symbols[name]
		if sym.Slot != i || u.Slots[i] != sym {
			t.Errorf("%s: unit %s: %s has slot %d (Slots[%d] = %s), want %d",
				prog, u.Name, name, sym.Slot, i, u.Slots[i].Name, i)
		}
	}
}

// stmtExprs returns the expressions a statement holds directly; nested
// statements are reached through lang.Walk.
func stmtExprs(s lang.Stmt) []lang.Expr {
	switch st := s.(type) {
	case *lang.Assign:
		return []lang.Expr{st.LHS, st.RHS}
	case *lang.IfBlock:
		es := []lang.Expr{st.Cond}
		for _, arm := range st.Elifs {
			es = append(es, arm.Cond)
		}
		return es
	case *lang.LogicalIf:
		return []lang.Expr{st.Cond}
	case *lang.ArithIf:
		return []lang.Expr{st.Expr}
	case *lang.DoLoop:
		return slices.DeleteFunc([]lang.Expr{st.Lo, st.Hi, st.Step}, func(e lang.Expr) bool { return e == nil })
	case *lang.ComputedGoto:
		return []lang.Expr{st.Expr}
	case *lang.CallStmt:
		return st.Args
	case *lang.Print:
		return st.Items
	}
	return nil
}

// walkExpr calls fn on e and every subexpression, pre-order.
func walkExpr(e lang.Expr, fn func(lang.Expr)) {
	fn(e)
	switch x := e.(type) {
	case *lang.Index:
		for _, s := range x.Subs {
			walkExpr(s, fn)
		}
	case *lang.Intrinsic:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *lang.Bin:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *lang.Un:
		walkExpr(x.X, fn)
	}
}
