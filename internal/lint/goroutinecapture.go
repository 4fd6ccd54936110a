package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineCapture flags data races through closure capture: a local
// variable captured by reference by a `go` closure that the spawning
// function keeps using while the goroutine may still be running — one side writing, the
// other reading or writing. Under Go 1.22 loop variables are per-iteration,
// so capturing one is safe by itself; what still races is the variable that
// outlives the spawn and is mutated on both sides of it. An access is
// excused when a WaitGroup.Wait not yet performed at the spawn point must
// have completed before it (the goroutine has provably been joined), or
// when the variable carries a `// guarded by` annotation (then lockguard
// owns the proof). The internal/parallel pool calls (ForEach, ForEachMeter,
// Map) join their workers before returning, so code after them is not
// concurrent with the workers and is not checked.
var GoroutineCapture = &Analyzer{
	Name:     "goroutinecapture",
	Doc:      "locals captured by go closures must not be accessed concurrently without sync",
	Severity: SevError,
	Run:      runGoroutineCapture,
}

func runGoroutineCapture(p *Pass) {
	_, guarded := collectGuardsQuiet(p)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCaptures(p, fd, fd.Body, guarded)
			}
		}
	}
}

// captureUse records how a closure touches one captured variable.
type captureUse struct {
	read, write bool
}

// checkCaptures analyzes one function body: finds its concurrently-spawned
// closures, the locals they capture, and the enclosing accesses that race
// with them; then recurses into every nested closure.
func checkCaptures(p *Pass, fn ast.Node, body *ast.BlockStmt,
	guarded map[types.Object]guardInfo) {
	info := p.Pkg.Info
	closures := flowWalk(info, body, factSet{}, true, nil)

	type spawn struct {
		fc   flowClosure
		loop ast.Node
		caps map[types.Object]captureUse
	}
	var spawns []spawn
	for _, fc := range closures {
		if !fc.spawnedGo {
			continue
		}
		caps := capturedVars(info, fn, fc.lit)
		for obj := range caps {
			if _, isGuarded := guarded[obj]; isGuarded {
				delete(caps, obj)
			}
		}
		if len(caps) == 0 {
			continue
		}
		spawns = append(spawns, spawn{fc: fc, loop: enclosingLoop(body, fc.spawnPos), caps: caps})
	}

	if len(spawns) > 0 {
		flowWalk(info, body, factSet{}, true, func(n ast.Node, stack []ast.Node, facts factSet) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			obj := info.Uses[id]
			if obj == nil {
				return
			}
			for _, s := range spawns {
				use, captured := s.caps[obj]
				if !captured || !concurrentWithSpawn(id.Pos(), s.fc.spawnPos, s.loop, obj) {
					continue
				}
				expr, exprStack := accessExprFor(id, stack)
				isWrite := classifyAccess(expr, exprStack) == accessWrite
				if !(isWrite && (use.read || use.write)) && !(use.write && !isWrite) {
					continue
				}
				if joinedSince(facts, s.fc.at) {
					continue
				}
				verb := "read"
				if isWrite {
					verb = "written"
				}
				p.Reportf(id.Pos(), "local %s is %s here while the goroutine spawned at line %d may still be using it; copy it, synchronize, or join the goroutine first",
					id.Name, verb, p.Fset.Position(s.fc.spawnPos).Line)
			}
		})
	}

	for _, fc := range closures {
		checkCaptures(p, fc.lit, fc.lit.Body, guarded)
	}
}

// capturedVars maps each variable declared in fn but outside lit to how
// lit's body uses it.
func capturedVars(info *types.Info, fn ast.Node, lit *ast.FuncLit) map[types.Object]captureUse {
	caps := map[types.Object]captureUse{}
	inspectWithStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, isVar := info.Uses[id].(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos < fn.Pos() || pos >= fn.End() || (pos >= lit.Pos() && pos < lit.End()) {
			return true
		}
		expr, exprStack := accessExprFor(id, stack)
		use := caps[v]
		if classifyAccess(expr, exprStack) == accessWrite {
			use.write = true
		} else {
			use.read = true
		}
		caps[v] = use
		return true
	})
	return caps
}

// concurrentWithSpawn decides whether an access at pos can run while a
// goroutine spawned at spawnPos is live: anything after the spawn point is,
// and — when the spawn sits in a loop — so is the rest of the loop body,
// which re-executes after earlier iterations' spawns. Variables declared
// inside the loop are per-iteration (Go 1.22), so for those only the
// same-iteration, after-the-spawn window counts.
func concurrentWithSpawn(pos, spawnPos token.Pos, loop ast.Node, obj types.Object) bool {
	if pos > spawnPos {
		return true
	}
	if loop == nil {
		return false
	}
	inLoop := pos >= loop.Pos() && pos < loop.End()
	declaredOutside := obj.Pos() < loop.Pos() || obj.Pos() >= loop.End()
	return inLoop && declaredOutside
}

// joinedSince reports whether a WaitGroup.Wait not yet performed at spawn
// time must have completed by the access point — the idiomatic proof that
// the goroutine has been joined.
func joinedSince(at, spawnAt factSet) bool {
	for k := range at {
		if len(k) > 5 && k[:5] == "wait:" && !spawnAt[k] {
			return true
		}
	}
	return false
}

// enclosingLoop returns the innermost for/range statement in body whose
// range contains pos, or nil.
func enclosingLoop(body ast.Node, pos token.Pos) ast.Node {
	var innermost ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos < n.End() {
				innermost = n
			}
		case *ast.FuncLit:
			return false
		case nil:
			return false
		}
		return true
	})
	return innermost
}

// collectGuardsQuiet is collectGuards without the malformed-annotation
// diagnostics, for analyzers that only need the guarded set (lockguard owns
// the reporting).
func collectGuardsQuiet(p *Pass) (map[types.Object]guardInfo, map[types.Object]guardInfo) {
	quiet := *p
	quiet.findings = nil
	f, l := collectGuards(&quiet)
	return f, l
}
