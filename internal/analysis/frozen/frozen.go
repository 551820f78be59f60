// Package frozen enforces construction-time immutability: a struct type
// annotated `//pdede:frozen` may only be written while the value is still
// private to its constructor — once it escapes, it is read-only forever.
//
// The contract exists because frozen values are shared without locks:
// `core.WarmState` — one app's shared frontend log — is built once per app
// and then read concurrently by every design cell, a `.pdtz` block index is handed to racing BlockReaders over
// one shared mmap, and pdede-serve snapshots its Config per tenant. A
// single post-construction write is a data race that `-race` only sees
// when the schedule cooperates; this check rejects it statically.
//
// The proof is interprocedural, built on flowkit's summaries:
//
//   - A write whose alias-resolved path crosses a frozen type's field is a
//     candidate violation (value copies are exempt — writing a by-value
//     copy touches no shared storage).
//   - A candidate rooted at a local is legal only if the local is bound to
//     a fresh allocation (`w := &WarmState{...}`, `new`, a composite
//     literal) in that same function: still construction.
//   - A candidate rooted at a receiver or parameter is legal only if the
//     function is unexported and *every* in-package call site binds that
//     root to storage that is itself still under construction — a fresh
//     local, or a recursively-legal receiver/parameter. This is how a
//     constructor (fresh local) → an unexported helper writing through its
//     receiver passes while any post-escape caller of the same method is
//     rejected.
//   - Calls to out-of-package mutator-named methods (Update, Push, Reset,
//     AccessRange, ...) through a frozen field are held to the same
//     standard: mutating an object hanging off frozen state is mutating
//     the frozen snapshot.
//
// Escape: `//pdede:frozen-ok <reason>` on the offending line or the
// function's doc comment — for deliberate post-construction transitions
// such as an explicit invalidation hook.
package frozen

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis/flowkit"
	"repro/internal/analysis/lintkit"
)

// Analyzer is the frozen lint pass.
var Analyzer = &lintkit.Analyzer{
	Name: "frozen",
	Doc:  "types marked //pdede:frozen are immutable once their constructor returns: post-construction writes race with lock-free sharing",
	Run:  run,
}

// mutatorNames are method names presumed to mutate their receiver when the
// body is out of reach (other package or interface dispatch).
var mutatorNames = map[string]bool{
	"Update": true, "Insert": true, "Delete": true, "Remove": true,
	"Reset": true, "Clear": true, "Push": true, "Pop": true,
	"Put": true, "Set": true, "Store": true, "Install": true,
	"Acquire": true, "Release": true, "Touch": true, "FindOrInsert": true,
	"Record": true, "Train": true, "Observe": true, "Evict": true,
	"Invalidate": true, "Promote": true, "Fill": true,
	"Add": true, "Write": true, "AccessRange": true, "Access": true,
}

func run(pass *lintkit.Pass) error {
	frozenFields, typeOf := collectFrozen(pass)
	if len(frozenFields) == 0 {
		return nil
	}
	cg := flowkit.BuildCallGraph(pass.Files, pass.Pkg, pass.TypesInfo)
	sums := flowkit.BuildSummaries(cg, pass.Pkg, pass.TypesInfo)
	ck := &checker{
		pass: pass, cg: cg, sums: sums,
		frozen: frozenFields, typeOf: typeOf,
		callers: callerIndex(cg),
		fresh:   make(map[*types.Func]map[*types.Var]bool),
		memo:    make(map[string]bool),
	}

	var fns []*types.Func
	for fn := range cg.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })

	for _, fn := range fns {
		ck.checkFunc(fn)
	}
	return nil
}

// collectFrozen finds //pdede:frozen struct types and returns their field
// set plus, per field, the owning type's name (for diagnostics).
func collectFrozen(pass *lintkit.Pass) (map[*types.Var]bool, map[*types.Var]string) {
	fields := make(map[*types.Var]bool)
	owner := make(map[*types.Var]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !typeIsFrozen(pass, file, gd, ts) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							fields[v] = true
							owner[v] = ts.Name.Name
						}
					}
				}
			}
		}
	}
	return fields, owner
}

// typeIsFrozen reports whether the type declaration carries //pdede:frozen
// (doc comment of the decl or spec, or the line above). The match is exact:
// //pdede:frozen-ok is a different directive.
func typeIsFrozen(pass *lintkit.Pass, file *ast.File, gd *ast.GenDecl, ts *ast.TypeSpec) bool {
	for _, cgrp := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
		if cgrp == nil {
			continue
		}
		for _, c := range cgrp.List {
			rest, ok := strings.CutPrefix(c.Text, lintkit.DirectivePrefix+"frozen")
			if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return true
			}
		}
	}
	return pass.NodeHasDirective(file, ts, "frozen")
}

// callerIndex inverts the call graph: callee → its in-package call sites.
type callSite struct {
	caller *types.Func
	call   flowkit.Call
}

func callerIndex(cg *flowkit.CallGraph) map[*types.Func][]callSite {
	out := make(map[*types.Func][]callSite)
	var fns []*types.Func
	for fn := range cg.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		for _, c := range cg.Calls[fn] {
			for _, t := range c.Targets {
				out[t] = append(out[t], callSite{caller: fn, call: c})
			}
		}
	}
	return out
}

type checker struct {
	pass    *lintkit.Pass
	cg      *flowkit.CallGraph
	sums    *flowkit.Summaries
	frozen  map[*types.Var]bool
	typeOf  map[*types.Var]string
	callers map[*types.Func][]callSite
	fresh   map[*types.Func]map[*types.Var]bool
	memo    map[string]bool
}

func (ck *checker) checkFunc(fn *types.Func) {
	fd := ck.cg.Decls[fn]
	file := ck.cg.File(fn)
	if ck.pass.FuncHasDirective(file, fd, "frozen-ok") {
		return
	}
	sum := ck.sums.ByFunc[fn]
	if sum == nil {
		return
	}
	for _, eff := range sum.Direct {
		f, touches := ck.frozenField(eff.Fields)
		if !touches || ck.legalEffect(fn, eff) {
			continue
		}
		if ck.pass.NodeHasDirective(file, eff.Node, "frozen-ok") {
			continue
		}
		ck.pass.Reportf(eff.Node.Pos(),
			"write to %s of //pdede:frozen type %s outside construction: frozen state is shared lock-free and must not change after its constructor returns",
			f.Name(), ck.typeOf[f])
	}
	// Mutator-named calls into other packages through a frozen field mutate
	// the frozen object graph; in-package targets are covered by their own
	// summaries above.
	aliases := flowkit.CollectAliases(fd, ck.pass.TypesInfo)
	for _, c := range ck.cg.Calls[fn] {
		if len(c.Targets) > 0 || c.Callee == nil || !mutatorNames[c.Callee.Name()] {
			continue
		}
		if c.Callee.Type().(*types.Signature).Recv() == nil {
			continue
		}
		sel, ok := ast.Unparen(c.Expr.Fun).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		p, ok := flowkit.ResolvePath(ck.pass.TypesInfo, sel.X, aliases)
		if !ok {
			continue
		}
		f, touches := ck.frozenField(p.Fields)
		if !touches {
			continue
		}
		if ck.legalRootVar(fn, p.Base) {
			continue
		}
		if ck.pass.NodeHasDirective(file, c.Expr, "frozen-ok") {
			continue
		}
		ck.pass.Reportf(c.Expr.Pos(),
			"call mutates %s of //pdede:frozen type %s outside construction (%s.%s is a mutator): frozen state must not change after its constructor returns",
			f.Name(), ck.typeOf[f], types.ExprString(sel.X), c.Callee.Name())
	}
}

// frozenField returns the first frozen field crossed by a path.
func (ck *checker) frozenField(fields []*types.Var) (*types.Var, bool) {
	for _, f := range fields {
		if ck.frozen[f] {
			return f, true
		}
	}
	return nil, false
}

// legalEffect decides whether a frozen-touching write is still
// construction-time.
func (ck *checker) legalEffect(fn *types.Func, eff flowkit.Effect) bool {
	if !eff.Indirect {
		// A direct write to a by-value copy: the shared object is
		// untouched.
		return eff.Kind != flowkit.RootGlobal
	}
	return ck.legalRootVar(fn, eff.Base)
}

// legalRootVar dispatches a root variable to the right legality rule.
func (ck *checker) legalRootVar(fn *types.Func, base *types.Var) bool {
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil && base == ck.recvVar(fn) {
		return ck.legalRoot(fn, -1)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if base == ck.paramVar(fn, i) {
			return ck.legalRoot(fn, i)
		}
	}
	if base.Parent() == ck.pass.Pkg.Scope() {
		return false // package-level frozen state: never construction
	}
	return ck.freshLocals(fn)[base]
}

// recvVar / paramVar fetch the declaration-side variables, which are the
// objects flowkit paths are rooted at.
func (ck *checker) recvVar(fn *types.Func) *types.Var {
	return fn.Type().(*types.Signature).Recv()
}

func (ck *checker) paramVar(fn *types.Func, i int) *types.Var {
	return fn.Type().(*types.Signature).Params().At(i)
}

// legalRoot reports whether the receiver (-1) or i'th parameter of fn is
// provably still under construction at every possible entry to fn: fn is
// unexported (nothing outside the package can call it) and each in-package
// call site binds the root to a fresh local or a recursively-legal
// receiver/parameter. Cycles (mutual recursion) resolve to illegal.
func (ck *checker) legalRoot(fn *types.Func, idx int) bool {
	key := fn.FullName() + "#" + strconv.Itoa(idx)
	if v, ok := ck.memo[key]; ok {
		return v
	}
	ck.memo[key] = false // in-progress: a cycle cannot prove construction
	if ast.IsExported(fn.Name()) {
		return false
	}
	for _, site := range ck.callers[fn] {
		arg := boundArg(site.call.Expr, idx)
		if arg == nil {
			return false
		}
		aliases := flowkit.CollectAliases(ck.cg.Decls[site.caller], ck.pass.TypesInfo)
		p, ok := flowkit.ResolvePath(ck.pass.TypesInfo, arg, aliases)
		if !ok || len(p.Fields) > 0 {
			// Bound to stored state (or something unresolvable): the value
			// has escaped its constructor.
			return false
		}
		if !ck.legalRootVar(site.caller, p.Base) {
			return false
		}
	}
	ck.memo[key] = true
	return true
}

// boundArg returns the call-site expression bound to a callee parameter
// index (receiver = -1), or nil when the binding is not simple.
func boundArg(call *ast.CallExpr, idx int) ast.Expr {
	if idx == -1 {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		return sel.X
	}
	if idx < 0 || idx >= len(call.Args) {
		return nil
	}
	return call.Args[idx]
}

// freshLocals finds fn's locals bound to fresh allocations: composite
// literals, &literals, and new(T).
func (ck *checker) freshLocals(fn *types.Func) map[*types.Var]bool {
	if m, ok := ck.fresh[fn]; ok {
		return m
	}
	m := make(map[*types.Var]bool)
	fd := ck.cg.Decls[fn]
	if fd != nil && fd.Body != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := ck.pass.TypesInfo.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if isFreshAlloc(as.Rhs[i]) {
					m[v] = true
				}
			}
			return true
		})
	}
	ck.fresh[fn] = m
	return m
}

func isFreshAlloc(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}
