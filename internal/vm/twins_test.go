package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// TestDispatchTwinsHandleSameOpcodes guards the hand-kept twin loops:
// exec (exec.go) and execPaths (exec_paths.go) must dispatch the same
// opcode set, and every opcode vm.go declares must be dispatched. A new
// opcode added to one loop only, or declared and never executed, fails
// here instead of surfacing as a "bad opcode" runtime error on whichever
// engine configuration the differential suites happen not to cover.
func TestDispatchTwinsHandleSameOpcodes(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	exec := dispatchCases(t, parse("exec.go"), "exec")
	paths := dispatchCases(t, parse("exec_paths.go"), "execPaths")
	declared := declaredOpcodes(parse("vm.go"))
	if len(declared) == 0 {
		t.Fatal("vm.go declares no opcodes")
	}
	if d := setDiff(exec, paths); d != "" {
		t.Errorf("exec handles opcodes execPaths does not: %s", d)
	}
	if d := setDiff(paths, exec); d != "" {
		t.Errorf("execPaths handles opcodes exec does not: %s", d)
	}
	if d := setDiff(declared, union(exec, paths)); d != "" {
		t.Errorf("opcodes declared in vm.go but dispatched by neither loop: %s", d)
	}
	if d := setDiff(union(exec, paths), declared); d != "" {
		t.Errorf("dispatched names that vm.go does not declare as opcodes: %s", d)
	}
}

// dispatchCases returns the opcode names in the case clauses of fn's
// top-level dispatch, the `switch in.op` statement. The threaded
// look-ahead switches (on tin.op and friends) are not the dispatch.
func dispatchCases(t *testing.T, f *ast.File, fn string) map[string]bool {
	t.Helper()
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			body = fd.Body
		}
	}
	if body == nil {
		t.Fatalf("no func %s", fn)
	}
	cases := make(map[string]bool)
	found := 0
	ast.Inspect(body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		sel, ok := sw.Tag.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "op" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "in" {
			return true
		}
		found++
		for _, st := range sw.Body.List {
			for _, e := range st.(*ast.CaseClause).List {
				if id, ok := e.(*ast.Ident); ok {
					cases[id.Name] = true
				}
			}
		}
		return true
	})
	if found != 1 {
		t.Fatalf("%s: found %d `switch in.op` statements, want 1", fn, found)
	}
	return cases
}

// declaredOpcodes returns the names of the opcode-typed constants vm.go
// declares (the iota block whose first entry is typed opcode).
func declaredOpcodes(f *ast.File) map[string]bool {
	ops := make(map[string]bool)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		typed := false
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); ok {
				typed = id.Name == "opcode"
			}
			if !typed {
				continue
			}
			for _, n := range vs.Names {
				ops[n.Name] = true
			}
		}
	}
	return ops
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// setDiff lists, sorted, the members of a missing from b.
func setDiff(a, b map[string]bool) string {
	var miss []string
	for k := range a {
		if !b[k] {
			miss = append(miss, k)
		}
	}
	sort.Strings(miss)
	return strings.Join(miss, ", ")
}
