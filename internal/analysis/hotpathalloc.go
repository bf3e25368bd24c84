package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc keeps the per-row execution path allocation-lean: a
// function marked //bevet:hotpath runs once per emitted row (the
// fetch/join/dedup path in internal/plan, key encoding in
// internal/value), so constructs that allocate per call dominate the
// profile long before the fetch itself does. Flagged:
//
//   - any call into package fmt (Sprintf/Errorf/… allocate and reflect)
//   - string concatenation (+ / +=) inside a loop (quadratic garbage)
//   - map allocation (make(map…) or a map literal) — a per-call map on
//     a per-row function is ROADMAP item 1's first enemy
//   - interface boxing: passing a concrete value to an interface-typed
//     parameter forces a heap allocation per call
//
// The directive is the contract: unmarked functions may allocate
// freely (fetchEval.run's per-execution dedup map is fine; a per-row
// one is not). //bevet:allow hotpathalloc suppresses on a marked
// function.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags allocation-inducing constructs in functions marked //bevet:hotpath",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	eachFuncDecl(pass, func(fn *ast.FuncDecl) {
		d := funcDirectives(fn)
		if !d.hotpath || d.allow["hotpathalloc"] {
			return
		}
		checkFmtCalls(pass, fn)
		checkConcatInLoops(pass, fn)
		checkMapAllocs(pass, fn)
		checkBoxing(pass, fn)
	})
	return nil
}

func checkFmtCalls(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(sel.Sel)
		if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "hotpath function calls fmt.%s: formatting allocates on every row", f.Name())
		}
		return true
	})
}

func checkConcatInLoops(pass *Pass, fn *ast.FuncDecl) {
	reported := make(map[token.Pos]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			switch e := m.(type) {
			case *ast.BinaryExpr:
				if e.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(e.X)) && !reported[e.Pos()] {
					reported[e.Pos()] = true
					pass.Reportf(e.Pos(), "hotpath function concatenates strings in a loop: use a strings.Builder or a byte buffer")
				}
			case *ast.AssignStmt:
				if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(pass.TypesInfo.TypeOf(e.Lhs[0])) && !reported[e.Pos()] {
					reported[e.Pos()] = true
					pass.Reportf(e.Pos(), "hotpath function concatenates strings in a loop: use a strings.Builder or a byte buffer")
				}
			}
			return true
		})
		return true
	})
}

func checkMapAllocs(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
				if _, isMap := pass.TypesInfo.TypeOf(e).Underlying().(*types.Map); isMap {
					pass.Reportf(e.Pos(), "hotpath function allocates a map per call: hoist it to the caller or a reusable state struct")
				}
			}
		case *ast.CompositeLit:
			if _, isMap := pass.TypesInfo.TypeOf(e).Underlying().(*types.Map); isMap {
				pass.Reportf(e.Pos(), "hotpath function allocates a map per call: hoist it to the caller or a reusable state struct")
			}
		}
		return true
	})
}

// checkBoxing flags call arguments whose concrete values convert to an
// interface-typed parameter: each such conversion heap-allocates.
func checkBoxing(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || tv.IsType() { // conversions are not calls
			return true
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return true
		}
		params := sig.Params()
		for i, arg := range call.Args {
			if i >= params.Len() && !sig.Variadic() {
				break
			}
			var pt types.Type
			if sig.Variadic() && i >= params.Len()-1 {
				if call.Ellipsis != token.NoPos {
					continue // s... passes the slice through, no boxing
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			} else {
				pt = params.At(i).Type()
			}
			if !isInterfaceType(pt) {
				continue
			}
			at := pass.TypesInfo.TypeOf(arg)
			if at == nil || isInterfaceType(at) || isUntypedNil(at) {
				continue
			}
			pass.Reportf(arg.Pos(), "hotpath function boxes a concrete value into an interface parameter: each call allocates")
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterfaceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
