// Package capleak checks the paper's core discipline at the gate
// boundary: capabilities are the only legal cross-domain references,
// and every other argument or result crosses by deep copy. A method on
// a gate/native-target type that traffics in raw pointers, slices,
// maps, channels, or funcs hands the caller shared mutable state — the
// breach the fixture's bad type (testdata/src/fixture) spells out method
// by method.
//
// Facts are gathered from directives, so the pass tracks what the
// kernel actually does rather than a hard-coded type list:
//
//   - //jk:gate-target N on a function (core.CreateNativeCapability)
//     marks argument N of each call as a type whose remote surface is
//     about to be exposed across domains;
//   - //jk:wire-register N (core.Kernel.RegisterWireType, seri's
//     Registry.Register) marks argument N of each call as a type the
//     serializer deep-copies — such named struct types may legally
//     cross;
//   - //jk:cap on a type declaration marks the capability type itself.
//
// The remote surface mirrors core/native.go's rule: exported methods
// whose final result is error. For each such method, every parameter
// and every non-error result must be a basic type, the capability type,
// []byte (the serializer's byte-copy tag), or a seri-registered named
// struct (by value or single pointer). Findings anchor at the
// gate-target call site — that is where the type escapes its domain —
// so a deliberate breach is suppressed there with one //jk:allow(capleak)
// justification, as the fixture's allowedCounterExample does.
package capleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"sync"

	"jkernel/internal/analysis"
	"jkernel/internal/analysis/load"
)

// Pass is the capleak analyzer.
var Pass = &analysis.Pass{
	Name: "capleak",
	Doc:  "gate-target methods may only pass capabilities or seri-registered deep-copy types across domains",
	Run:  run,
}

// facts are program-wide: wire registrations in one package legalize
// parameter types on a gate target created in another.
type facts struct {
	registered map[string]bool // NamedTypeKey of seri-registered types
}

var (
	factsMu    sync.Mutex
	factsCache = map[*analysis.Program]*facts{}
)

func factsFor(prog *analysis.Program) *facts {
	factsMu.Lock()
	defer factsMu.Unlock()
	if f, ok := factsCache[prog]; ok {
		return f
	}
	f := &facts{registered: map[string]bool{}}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg, call)
				if fn == nil {
					return true
				}
				for _, d := range prog.DirectivesFor(fn) {
					if d.Name != "wire-register" {
						continue
					}
					if arg := argAt(call, d.Args); arg != nil {
						if key := registeredKey(pkg, arg); key != "" {
							f.registered[key] = true
						}
					}
				}
				return true
			})
		}
	}
	factsCache[prog] = f
	return f
}

// registeredKey resolves the registered sample expression to its named
// type: Register(&DeploySpec{}) and RegisterWireType(Response{}) both
// register the struct type itself.
func registeredKey(pkg *load.Package, arg ast.Expr) string {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return ""
	}
	return analysis.NamedTypeKey(tv.Type)
}

func argAt(call *ast.CallExpr, directiveArgs string) ast.Expr {
	idx, err := strconv.Atoi(directiveArgs)
	if err != nil || idx < 0 || idx >= len(call.Args) {
		return nil
	}
	return call.Args[idx]
}

func run(prog *analysis.Program, pkg *load.Package, report analysis.ReportFunc) {
	f := factsFor(prog)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg, call)
			if fn == nil {
				return true
			}
			for _, d := range prog.DirectivesFor(fn) {
				if d.Name != "gate-target" {
					continue
				}
				arg := argAt(call, d.Args)
				if arg == nil {
					continue
				}
				checkTarget(prog, pkg, f, arg, call.Pos(), report)
			}
			return true
		})
	}
}

// checkTarget audits the remote surface of the type passed as a gate
// target at pos.
func checkTarget(prog *analysis.Program, pkg *load.Package, f *facts, arg ast.Expr, pos token.Pos, report analysis.ReportFunc) {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	t := types.Unalias(tv.Type)
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return // dynamic target: the static type says nothing about the surface
	}
	typeName := analysis.NamedTypeKey(t)
	if typeName == "" {
		return
	}
	mset := types.NewMethodSet(types.NewPointer(derefNamed(t)))
	for i := 0; i < mset.Len(); i++ {
		m, ok := mset.At(i).Obj().(*types.Func)
		if !ok || !m.Exported() {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || !remoteReachable(sig) {
			continue
		}
		params := sig.Params()
		for j := 0; j < params.Len(); j++ {
			if why := disallowed(prog, f, params.At(j).Type()); why != "" {
				report(pos, "gate target %s: method %s parameter %s crosses the domain boundary as %s — only capabilities and seri-registered deep-copy types may cross",
					typeName, m.Name(), paramName(params.At(j), j), why)
			}
		}
		results := sig.Results()
		for j := 0; j < results.Len()-1; j++ { // final error result excluded
			if why := disallowed(prog, f, results.At(j).Type()); why != "" {
				report(pos, "gate target %s: method %s result %d crosses the domain boundary as %s — only capabilities and seri-registered deep-copy types may cross",
					typeName, m.Name(), j, why)
			}
		}
	}
}

func paramName(v *types.Var, i int) string {
	if v.Name() != "" && v.Name() != "_" {
		return v.Name()
	}
	return fmt.Sprintf("%d", i)
}

func derefNamed(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return t
}

// remoteReachable mirrors core/native.go: the remote surface is the
// exported methods whose final result is error.
func remoteReachable(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// disallowed classifies a boundary-crossing type: "" when it may cross,
// otherwise a short phrase naming the breach.
func disallowed(prog *analysis.Program, f *facts, t types.Type) string {
	t = types.Unalias(t)
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return ""
	}
	if prog.TypeHasDirective(t, "cap") {
		return "" // the capability type: the one legal reference
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return "an unsafe.Pointer"
		}
		return "" // bools, numerics, strings copy by value
	case *types.Slice:
		if b, ok := types.Unalias(u.Elem()).Underlying().(*types.Basic); ok && b.Kind() == types.Uint8 {
			return "" // []byte: the serializer's byte-copy tag
		}
		return "a raw slice (" + t.String() + "), sharing backing memory"
	case *types.Map:
		return "a raw map (" + t.String() + "), sharing mutable state"
	case *types.Chan:
		return "a channel (" + t.String() + ")"
	case *types.Signature:
		return "a func value"
	case *types.Pointer:
		elem := types.Unalias(u.Elem())
		if prog.TypeHasDirective(elem, "cap") {
			return ""
		}
		if key := analysis.NamedTypeKey(elem); key != "" && f.registered[key] {
			return "" // pointer to a seri-registered struct: deep-copied on the wire
		}
		return "a raw pointer (" + t.String() + "), sharing the pointee"
	case *types.Interface:
		return "an interface (" + t.String() + "), hiding the concrete crossing type"
	case *types.Struct:
		if key := analysis.NamedTypeKey(t); key != "" && f.registered[key] {
			return ""
		}
		return "an unregistered struct (" + t.String() + "): register it with the serializer or pass a capability"
	case *types.Array:
		if b, ok := types.Unalias(u.Elem()).Underlying().(*types.Basic); ok && b.Kind() != types.UnsafePointer {
			_ = b
			return "" // arrays of basics copy by value
		}
		return "an array of non-basic elements (" + t.String() + ")"
	}
	return ""
}

func calleeFunc(pkg *load.Package, call *ast.CallExpr) *types.Func {
	switch fe := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fe].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fe.Sel].(*types.Func)
		return fn
	}
	return nil
}
