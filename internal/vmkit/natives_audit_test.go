package vmkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// nativePackages are the directories whose sources register natives
// (VM.RegisterNative). Add a directory here when it starts to.
var nativePackages = []string{".", "../core"}

// TestNativesDoNotRetainArgs is the audit behind the arena contract: a
// native's args is a window into the thread's frame arena, cleared and
// reused when the native returns, so no native may keep it. The check is
// syntactic and deliberately strict — inside every NativeFunc literal,
// args may only be indexed, measured, or lent to a call (whole or
// sliced); storing it, returning it, putting it in a literal or closing
// over it fails the test.
func TestNativesDoNotRetainArgs(t *testing.T) {
	fset := token.NewFileSet()
	natives := 0
	for _, dir := range nativePackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok || !isNativeFuncType(lit.Type) {
					return true
				}
				natives++
				name := lit.Type.Params.List[2].Names[0].Name
				for _, bad := range retainingUses(lit.Body, name) {
					t.Errorf("%s: native retains its args window", fset.Position(bad))
				}
				return true
			})
		}
	}
	if natives < 30 {
		t.Errorf("audited only %d native literals: the matcher no longer recognises them", natives)
	}
}

// TestNativeAuditCatchesRetention holds the audit to its word on the
// shapes it exists to reject, and on the ones it must let through.
func TestNativeAuditCatchesRetention(t *testing.T) {
	for body, wantBad := range map[string]bool{
		"x := args[0].I; _ = x":            false,
		"_ = len(args); use(args[1:])":     false,
		"kept = args":                      true,
		"kept = args[1:]":                  true,
		"return args":                      true,
		"go func() { _ = args[0] }()":      true,
		"s := holder{a: args}; _ = s":      true,
		"defer func() { use(args[:1]) }()": true,
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "", "package p\nfunc f() {"+body+"}", 0)
		if err != nil {
			t.Fatal(err)
		}
		bad := retainingUses(f.Decls[0].(*ast.FuncDecl).Body, "args")
		if (len(bad) > 0) != wantBad {
			t.Errorf("%q: flagged=%v, want %v", body, len(bad) > 0, wantBad)
		}
	}
}

// isNativeFuncType matches func(env *Env, recv *Object, args []Value)
// (Value, *Object), with or without the vmkit qualifier.
func isNativeFuncType(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) != 3 || ft.Results == nil || len(ft.Results.List) != 2 {
		return false
	}
	last := ft.Params.List[2]
	arr, ok := last.Type.(*ast.ArrayType)
	return ok && arr.Len == nil && len(last.Names) == 1 && typeName(arr.Elt) == "Value" &&
		typeName(ft.Params.List[0].Type) == "*Env"
}

func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// retainingUses returns the positions where name is used other than as
// name[i], len(name), or (possibly sliced) as a call argument — or used at
// all inside a nested closure.
func retainingUses(body *ast.BlockStmt, name string) []token.Pos {
	var bad []token.Pos
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		// Any use inside a nested closure may run after the native returned.
		for _, outer := range stack {
			if _, nested := outer.(*ast.FuncLit); nested {
				bad = append(bad, id.Pos())
				return true
			}
		}
		// Walk outwards from the identifier: through slicings of it, up
		// to the expression that consumes the value.
		var val ast.Node = id
		for i := len(stack) - 2; i >= 0; i-- {
			switch p := stack[i].(type) {
			case *ast.IndexExpr:
				if p.X == val {
					return true // args[i]: a Value, copied out
				}
			case *ast.SliceExpr:
				if p.X == val {
					val = p
					continue
				}
			case *ast.CallExpr:
				for _, a := range p.Args {
					if a == val {
						return true // lent for the duration of the call
					}
				}
			}
			break
		}
		bad = append(bad, id.Pos())
		return true
	})
	return bad
}
