package lint

import (
	"go/ast"
	"strings"

	"zerosum/internal/lint/flow"
)

// goroutinestopCheck judges every go statement by flow evidence: its
// body's CFG must have a path from entry to exit, i.e. the goroutine must
// be able to terminate. Whether the body *mentions* a ctx/done channel does
// not matter: a `for {}` with no break, or a receive loop that never checks
// the channel-closed ok, mentions whatever it likes and still runs forever,
// while a body that can return does not leak whatever its identifiers are
// called.
//
// The rule is exit-reachability, deliberately weak in the safe direction:
// a bounded loop passes (its condition can go false), a select with a
// return in some case passes, `for range ch` passes (the range ends when
// ch closes). What fails is a body with no terminating path at all — which
// is exactly the shape that leaks a thread per job on a long-lived node
// daemon. //zerosum:detached <why> on the go statement's line opts out.
type goroutinestopCheck struct{}

func (goroutinestopCheck) Name() string { return "goroutinestop" }

func (c goroutinestopCheck) Run(p *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			covered := lineDirectives(p.Fset, file)
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				line := p.Fset.Position(g.Pos()).Line
				if _, detached := covered[line]["detached"]; detached {
					return true
				}
				body, where := spawnedBody(p, pkg, g)
				if body == nil {
					// Unresolvable callee (method value, stdlib, function
					// variable): no CFG to inspect, so fall back to the
					// convention that a lifecycle value among the arguments
					// governs it.
					for _, arg := range g.Call.Args {
						if bodyMentionsLifecycle(pkg, arg) {
							return true
						}
					}
					diags = append(diags, p.Diag("goroutinestop", g.Pos(),
						"cannot see the spawned function's body and no lifecycle value is passed; pass a ctx/done or annotate //zerosum:detached <why>"))
					return true
				}
				if flow.New(body).ExitReachable() {
					return true
				}
				diags = append(diags, p.Diag("goroutinestop", g.Pos(),
					"goroutine body%s has no path to return: every loop spins forever (no break/return, no ok-checked receive); give it a reachable exit or annotate //zerosum:detached <why>", where))
				return true
			})
		}
	}
	return diags
}

// spawnedBody resolves the function body a go statement runs: the literal's
// body for `go func(){...}()`, the declaration's body for `go f()` when f
// is a module function. where names the callee for the diagnostic.
func spawnedBody(p *Program, pkg *Pkg, g *ast.GoStmt) (body *ast.BlockStmt, where string) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, ""
	default:
		if f := calleeFunc(pkg.Info, g.Call); f != nil {
			if src := p.FuncFor(f); src != nil && src.Decl.Body != nil {
				return src.Decl.Body, " (" + shortName(f) + ")"
			}
		}
	}
	return nil, ""
}

// lifecycleHints are the identifier substrings that mark a stop mechanism.
var lifecycleHints = []string{"ctx", "done", "stop", "quit", "cancel", "exit"}

// bodyMentionsLifecycle reports whether body references a lifecycle value:
// an identifier named like a stop mechanism, or any context.Context.
func bodyMentionsLifecycle(pkg *Pkg, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		lower := strings.ToLower(id.Name)
		for _, hint := range lifecycleHints {
			if strings.Contains(lower, hint) {
				found = true
				return false
			}
		}
		// A value of type context.Context is a lifecycle regardless of name.
		if obj := pkg.Info.Uses[id]; obj != nil && obj.Type() != nil &&
			obj.Type().String() == "context.Context" {
			found = true
			return false
		}
		return true
	})
	return found
}
