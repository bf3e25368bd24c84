package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SnapshotTear flags functions that read the engine's snapshot pointer
// more than once through different accessors. Instance() and Indexed()
// each load the atomic snapshot pointer, so calling both (or mixing
// either with Snapshot()) on the same engine inside one function can
// hand the caller the instance of one published version and the
// indices of another when an Apply lands between the two loads — the
// exact tear internal/core's TestSnapshotPinnedUnderApply counts.
// The fix is always the same: read the snapshot once — one Indexed(),
// whose Instance is the same version's.
//
// Exempt: the accessor methods themselves (receiver is the Engine) and
// functions carrying //bevet:allow snapshottear (e.g. the race test
// that measures the legacy pattern's tear rate on purpose).
var SnapshotTear = &Analyzer{
	Name: "snapshottear",
	Doc:  "flags functions mixing Engine.Instance()/Indexed()/Snapshot() reads that can tear across a concurrent Apply",
	Run:  runSnapshotTear,
}

// snapshotAccessors are the snapshot-reading accessor names; each call
// performs one atomic snapshot load.
var snapshotAccessors = map[string]bool{"Instance": true, "Indexed": true, "Snapshot": true}

func runSnapshotTear(pass *Pass) error {
	eachFuncDecl(pass, func(fn *ast.FuncDecl) {
		if allows(fn, "snapshottear") {
			return
		}
		// The accessors themselves are the one place a raw snapshot
		// load belongs.
		if fn.Recv != nil && snapshotAccessors[fn.Name.Name] && isEngineType(recvType(pass, fn)) {
			return
		}
		// First call position of each accessor, per receiver expression.
		calls := make(map[string]map[string]token.Pos)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !snapshotAccessors[sel.Sel.Name] {
				return true
			}
			if !isEngineType(pass.TypesInfo.TypeOf(sel.X)) {
				return true
			}
			recv := types.ExprString(sel.X)
			if calls[recv] == nil {
				calls[recv] = make(map[string]token.Pos)
			}
			if _, seen := calls[recv][sel.Sel.Name]; !seen {
				calls[recv][sel.Sel.Name] = call.Pos()
			}
			return true
		})
		recvs := make([]string, 0, len(calls))
		for recv := range calls {
			recvs = append(recvs, recv)
		}
		sort.Strings(recvs)
		for _, recv := range recvs {
			m := calls[recv]
			switch {
			case has(m, "Instance") && has(m, "Indexed"):
				pass.Reportf(laterPos(m["Instance"], m["Indexed"]),
					"calls both %s.Instance() and %s.Indexed(): two snapshot reads can tear across a concurrent Apply; read %s.Indexed() once and use its Instance", recv, recv, recv)
			case has(m, "Snapshot") && has(m, "Instance"):
				pass.Reportf(laterPos(m["Snapshot"], m["Instance"]),
					"mixes %s.Snapshot() with %s.Instance(): the extra snapshot read can tear across a concurrent Apply; use the pinned Snapshot() pair alone", recv, recv)
			case has(m, "Snapshot") && has(m, "Indexed"):
				pass.Reportf(laterPos(m["Snapshot"], m["Indexed"]),
					"mixes %s.Snapshot() with %s.Indexed(): the extra snapshot read can tear across a concurrent Apply; use the pinned Snapshot() pair alone", recv, recv)
			}
		}
	})
	return nil
}

func has(m map[string]token.Pos, k string) bool { _, ok := m[k]; return ok }

func laterPos(a, b token.Pos) token.Pos {
	if b > a {
		return b
	}
	return a
}

// recvType returns the type of fn's receiver, or nil.
func recvType(pass *Pass, fn *ast.FuncDecl) types.Type {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	return pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
}

// isEngineType reports whether t (possibly behind pointers) is a named
// type that serves snapshots: a concrete Engine (internal/core,
// internal/shard, or a fixture's) or the Queryable serving interface.
func isEngineType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Engine" || name == "Queryable"
}
