package analysis

import (
	"go/ast"
	"go/types"
)

// LockSmell flags a mutex locked in a function whose matching Unlock is
// a plain statement rather than deferred. Any early return or panic
// between the pair leaves the mutex held forever — exactly the shape of
// bug fault-injection tests trip over. (Copying a lock by value is go
// vet's copylocks check.)
var LockSmell = &Analyzer{
	Name: "locksmell",
	Doc:  "flag Lock/Unlock pairs whose unlock is not deferred",
	Run:  runLockSmell,
}

func runLockSmell(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkDeferlessUnlock(pass, n.Body)
				}
			case *ast.FuncLit:
				checkDeferlessUnlock(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// lockOp is one Lock/Unlock-family call found in a function body.
type lockOp struct {
	recv     string // rendered receiver expression, e.g. "c.mu"
	name     string // Lock, RLock, Unlock, RUnlock
	deferred bool
	pos      ast.Node
}

// checkDeferlessUnlock flags Lock/RLock calls whose pairing Unlock in
// the same function is a plain statement instead of a defer. Nested
// function literals are their own scopes and are skipped here (they are
// visited separately), except literals invoked directly by a defer —
// their unlocks count as deferred for the enclosing function.
func checkDeferlessUnlock(pass *Pass, body *ast.BlockStmt) {
	var ops []lockOp
	collectLockOps(pass, body, false, &ops)

	deferUnlocked := map[string]bool{}
	plainUnlocked := map[string]bool{}
	for _, op := range ops {
		if op.name == "Unlock" || op.name == "RUnlock" {
			if op.deferred {
				deferUnlocked[op.recv] = true
			} else {
				plainUnlocked[op.recv] = true
			}
		}
	}
	for _, op := range ops {
		if op.name != "Lock" && op.name != "RLock" {
			continue
		}
		if deferUnlocked[op.recv] || !plainUnlocked[op.recv] {
			continue
		}
		pass.Report(op.pos.Pos(), "%s.%s() is released by a plain %s.Unlock(); an early return or panic between them leaks the lock — defer the unlock or extract the critical section", op.recv, op.name, op.recv)
	}
}

func collectLockOps(pass *Pass, n ast.Node, deferred bool, ops *[]lockOp) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false // separate scope, visited on its own
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(node.Call.Fun).(*ast.FuncLit); ok {
				collectLockOps(pass, lit.Body, true, ops)
				return false
			}
			if op, ok := asLockOp(pass, node.Call); ok {
				op.deferred = true
				*ops = append(*ops, op)
				return false
			}
			return true
		case *ast.CallExpr:
			if op, ok := asLockOp(pass, node); ok {
				op.deferred = deferred
				*ops = append(*ops, op)
			}
			return true
		}
		return true
	})
}

// asLockOp recognises a call to a sync.Mutex / sync.RWMutex locking
// method (including through embedding) and renders its receiver.
func asLockOp(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	return lockOp{recv: types.ExprString(sel.X), name: fn.Name(), pos: call}, true
}
