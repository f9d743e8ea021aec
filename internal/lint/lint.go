// Package lint is ZeroSum's repo-specific static analyzer (the zslint
// tool). The paper's whole value proposition is always-on monitoring at
// <0.5% overhead (§4.1); the repo encodes that as conventions — an
// allocation-free export.Stream.Publish hot path, a versioned little-endian
// wire format whose encoder and decoder must never drift apart, bounded
// drop-oldest backpressure goroutines with explicit stop mechanisms, and
// injected clocks so the simulator and the live host run identical code.
// Nothing but reviewer vigilance enforces any of that, so this package
// machine-checks it: a stdlib-only framework (go/parser, go/ast, go/types
// with the source importer — no external dependencies) loads every package
// of the module and runs a pluggable set of checks over the type-checked
// ASTs. See docs/lint.md for the check catalogue and the //zerosum:*
// annotation conventions.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, renderable as "file:line: [check] message".
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"` // module-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Check is one analysis pass over a loaded Program.
type Check interface {
	Name() string
	Run(p *Program) []Diagnostic
}

// Options scopes the checks. Scopes are module-relative package directories
// ("internal/proc"; "" is the module root package); a scope entry also
// covers its subdirectories.
type Options struct {
	// ErrcheckScope is where discarded error results are findings: packages
	// where a dropped error means silently missing samples.
	ErrcheckScope []string
	// ClockScope is where raw wall-clock calls are findings: packages that
	// already take an injected clock or interval.
	ClockScope []string
}

// DefaultOptions returns the scopes enforced on the ZeroSum repo itself.
func DefaultOptions() Options {
	return Options{
		ErrcheckScope: []string{"internal/proc", "internal/aggd", "internal/export", "internal/tsdb", "internal/scenario"},
		ClockScope: []string{
			"internal/core", "internal/sched", "internal/sim",
			"internal/proc", "internal/export", "internal/aggd",
			"internal/chaos", "internal/tsdb", "internal/scenario",
		},
	}
}

// Checks returns the full check suite under the given options.
func Checks(opt Options) []Check {
	return []Check{
		hotpathCheck{},
		errcheckCheck{scope: opt.ErrcheckScope},
		wiresyncCheck{},
		clockCheck{scope: opt.ClockScope},
		guardedbyCheck{},
		lockorderCheck{},
		deadexportCheck{},
		goroutinestopCheck{},
	}
}

// Run executes the checks and returns their findings in the canonical order.
func Run(p *Program, checks []Check) []Diagnostic {
	diags, _ := RunTimed(p, checks)
	return diags
}

// CheckTiming is one check's wall-clock cost, for the -time budget report.
type CheckTiming struct {
	Check   string
	Elapsed time.Duration
}

// RunTimed is Run with per-check wall-clock timings (zslint -time uses it
// to police the CI runtime budget).
func RunTimed(p *Program, checks []Check) ([]Diagnostic, []CheckTiming) {
	var diags []Diagnostic
	timings := make([]CheckTiming, 0, len(checks))
	for _, c := range checks {
		start := time.Now()
		diags = append(diags, c.Run(p)...)
		timings = append(timings, CheckTiming{Check: c.Name(), Elapsed: time.Since(start)})
	}
	sortDiagnostics(diags)
	return diags, timings
}

// sortDiagnostics is THE diagnostic ordering — (file, line, check, col,
// message) — used by Run, the baseline machinery, and the CLI alike, and
// pinned by a golden test. Keying check before column keeps the order
// stable when a check's reported column shifts by a token.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// WriteText renders diagnostics one per line.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders diagnostics as a JSON array (always an array, never
// null, so consumers can len() it).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// inScope reports whether a module-relative package directory is covered by
// one of the scope entries.
func inScope(rel string, scope []string) bool {
	for _, s := range scope {
		if rel == s || (s != "" && strings.HasPrefix(rel, s+"/")) {
			return true
		}
	}
	return false
}

// ---- //zerosum:* annotations ----
//
// Annotations are machine-readable comment directives (written without a
// space after //, like //go:build): //zerosum:hotpath, //zerosum:coldpath,
// //zerosum:detached <why>, //zerosum:wallclock <why>,
// //zerosum:wire-encode <group>, //zerosum:wire-decode <group>,
// //zerosum:nowire <why>, and the concurrency set — //zerosum:guardedby
// <lock> on struct fields (lock is a sibling field name or Type.field lock
// class), //zerosum:locked <lock> [why] on functions or closure lines
// (declares the caller-holds-lock precondition; checked at call sites),
// //zerosum:nolock <why> on an access line (suppresses guardedby and
// lockorder there).

const directivePrefix = "//zerosum:"

// directives parses the //zerosum: lines of a comment group into a
// directive -> argument map (argument may be empty).
func directives(doc *ast.CommentGroup) map[string]string {
	if doc == nil {
		return nil
	}
	var out map[string]string
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		name, args, _ := strings.Cut(rest, " ")
		if name == "" {
			continue
		}
		if out == nil {
			out = make(map[string]string)
		}
		out[name] = strings.TrimSpace(args)
	}
	return out
}

// fieldDirectives merges a struct field's doc and trailing line comments.
func fieldDirectives(f *ast.Field) map[string]string {
	out := directives(f.Doc)
	for name, args := range directives(f.Comment) {
		if out == nil {
			out = make(map[string]string)
		}
		out[name] = args
	}
	return out
}

// lineDirectives maps source lines to the //zerosum: directives that cover
// them: a directive covers its own line (trailing comment) and the line
// immediately below it (comment above a statement).
func lineDirectives(fset *token.FileSet, file *ast.File) map[int]map[string]string {
	out := make(map[int]map[string]string)
	add := func(line int, name, args string) {
		m := out[line]
		if m == nil {
			m = make(map[string]string)
			out[line] = m
		}
		m[name] = args
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, args, _ := strings.Cut(rest, " ")
			if name == "" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			add(line, name, strings.TrimSpace(args))
			add(line+1, name, strings.TrimSpace(args))
		}
	}
	return out
}

// ---- shared AST/type helpers ----

// calleeFunc resolves a call expression to the function or method object it
// statically invokes (nil for builtins, function values, and interface
// methods that cannot be resolved to a declaration).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcDisplayName renders a declaration as Recv.Name or Name for messages.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// shortName renders a types.Func as pkg.Name or (pkg.Recv).Name without the
// full import path, for readable messages.
func shortName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, isPtr := recv.(*types.Pointer); isPtr {
			recv = ptr.Elem()
		}
		if named, isNamed := recv.(*types.Named); isNamed {
			return named.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}
