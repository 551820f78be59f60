// Package clonecomplete enforces deep-copy completeness on Clone methods:
// every pointer/slice/map field of a cloned type must be given fresh
// backing storage by Clone, or be explicitly declared shareable with
// `//pdede:shared-immutable` on the field.
//
// Any code that fans one structure out to concurrent users through Clone
// assumes Clone produces a structure whose mutation can never reach the
// original: a single shallow-copied slice turns the "byte-identical at any
// worker count" guarantee into a data race. The simulator's warm replay no
// longer clones anything — design cells share one immutable frontend log
// (core.WarmState, guarded by the frozen analyzer) — so today the check
// holds the fixtures and any future `Clone()` method in a package to that
// contract; property tests would catch a shallow copy only for the types
// they were written against.
//
// The proof sketch, per Clone method on a struct type T:
//
//  1. Reference-bearing fields of T (pointer, slice or map underlying
//     type) are collected, minus //pdede:shared-immutable ones.
//  2. The body's result values are tracked: `d := *c` (or a value-receiver
//     copy) starts every reference field in the "aliased" state; a
//     composite literal starts fields at their initializer's
//     classification (zero value = nil = fresh).
//  3. Assignments `d.f = rhs` reclassify f by rhs: fresh for append onto a
//     nil slice, make, new, composite literals, and Clone calls; aliased
//     for anything that still resolves to receiver-rooted storage
//     (`c.f`, `c.f[:n]`, `append(c.f, ...)`, `&c.f`). Calls to in-package
//     helpers are judged by their interprocedural summary: the result is
//     fresh only if the summary proves no result retains a parameter bound
//     to receiver-rooted storage.
//  4. Any reference field still aliased on a returned value is reported;
//     `return c` (no copy at all) reports every reference field.
//
// The check is top-level: fields whose *element* structs carry references
// (e.g. a slice of structs with interior slices) are flagged at the outer
// field only if the outer storage itself is shared — re-building the outer
// slice with fresh element copies is the pattern the tree uses and passes.
// Calls into other packages (whose bodies the per-package vet model cannot
// see) are trusted to return fresh values; the repository convention is
// that cross-package deep copies go through Clone, which is checked in its
// own package.
//
// Escape: `//pdede:shared-immutable <reason>` on the field (shared
// read-only tables), or `//pdede:clonecomplete-ok <reason>` on the method
// or the offending line.
package clonecomplete

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/flowkit"
	"repro/internal/analysis/lintkit"
)

// Analyzer is the clonecomplete lint pass.
var Analyzer = &lintkit.Analyzer{
	Name: "clonecomplete",
	Doc:  "Clone() must deep-copy every pointer/slice/map field or mark it //pdede:shared-immutable: a shallow clone silently couples warm-state replicas",
	Run:  run,
}

func run(pass *lintkit.Pass) error {
	cg := flowkit.BuildCallGraph(pass.Files, pass.Pkg, pass.TypesInfo)
	sums := flowkit.BuildSummaries(cg, pass.Pkg, pass.TypesInfo)
	shared := sharedImmutableFields(pass)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name != "Clone" {
				continue
			}
			if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
				continue
			}
			if pass.FuncHasDirective(file, fd, "clonecomplete-ok") {
				continue
			}
			checkClone(pass, file, fd, cg, sums, shared)
		}
	}
	return nil
}

// sharedImmutableFields collects fields annotated //pdede:shared-immutable.
func sharedImmutableFields(pass *lintkit.Pass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, file := range pass.Files {
		f := file
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldHasDirective(pass, f, field, "shared-immutable") {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

func fieldHasDirective(pass *lintkit.Pass, file *ast.File, field *ast.Field, name string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, lintkit.DirectivePrefix+name) {
				return true
			}
		}
	}
	return pass.NodeHasDirective(file, field, name)
}

// fieldState is the per-field copy evidence while walking a Clone body.
type fieldState int

const (
	stateFresh   fieldState = iota // fresh backing storage (or nil)
	stateAliased                   // still shares storage with the receiver
)

// result tracks one candidate return value being built in a Clone body.
type result struct {
	state  map[*types.Var]fieldState
	assign map[*types.Var]ast.Node // anchors each field's last classification
	origin ast.Node                // the copy/literal that created the result
}

type checker struct {
	pass      *lintkit.Pass
	file      *ast.File
	info      *types.Info
	cg        *flowkit.CallGraph
	sums      *flowkit.Summaries
	recv      *types.Var
	recvType  types.Type // named receiver type (pointer stripped)
	refFields []*types.Var
	results   map[*types.Var]*result
	reported  map[*types.Var]bool // fields already reported, once each
}

func checkClone(pass *lintkit.Pass, file *ast.File, fd *ast.FuncDecl,
	cg *flowkit.CallGraph, sums *flowkit.Summaries, shared map[*types.Var]bool) {

	info := pass.TypesInfo
	recv, ok := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	if !ok {
		return
	}
	rt := recv.Type()
	if p, isPtr := rt.Underlying().(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	st, ok := rt.Underlying().(*types.Struct)
	if !ok {
		return
	}
	c := &checker{
		pass: pass, file: file, info: info, cg: cg, sums: sums,
		recv: recv, recvType: rt,
		results:  make(map[*types.Var]*result),
		reported: make(map[*types.Var]bool),
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if shared[f] || !refType(f.Type()) {
			continue
		}
		c.refFields = append(c.refFields, f)
	}
	if len(c.refFields) == 0 {
		return
	}
	// A value receiver is already a copy at entry: the method may re-back
	// its fields in place and return it. Track it like any other result,
	// starting fully aliased.
	if _, isPtr := recv.Type().Underlying().(*types.Pointer); !isPtr {
		r := &result{
			state:  make(map[*types.Var]fieldState, len(c.refFields)),
			assign: make(map[*types.Var]ast.Node),
			origin: fd,
		}
		for _, f := range c.refFields {
			r.state[f] = stateAliased
		}
		c.results[recv] = r
	}

	var returned []*result
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if r := c.resultOf(res, n); r != nil {
					returned = append(returned, r)
				}
			}
		}
		return true
	})

	for _, r := range returned {
		for _, f := range c.refFields {
			if r.state[f] != stateAliased || c.reported[f] {
				continue
			}
			anchor := r.assign[f]
			if anchor == nil {
				anchor = r.origin
			}
			if anchor == nil {
				anchor = fd
			}
			if pass.NodeHasDirective(file, anchor, "clonecomplete-ok") {
				continue
			}
			c.reported[f] = true
			pass.Reportf(anchor.Pos(),
				"Clone of %s leaves reference field %s aliased to the receiver: deep-copy it or annotate //pdede:shared-immutable",
				typeName(rt), f.Name())
		}
	}
}

// assign processes one assignment statement: new result roots and per-field
// reclassifications.
func (c *checker) assign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lhs := ast.Unparen(as.Lhs[i])
		rhs := as.Rhs[i]
		switch lhs := lhs.(type) {
		case *ast.Ident:
			v, ok := c.info.Defs[lhs].(*types.Var)
			if !ok {
				if v, ok = c.info.Uses[lhs].(*types.Var); !ok {
					continue
				}
			}
			if r := c.resultOf(rhs, as); r != nil {
				c.results[v] = r
			}
		case *ast.SelectorExpr:
			base, ok := ast.Unparen(lhs.X).(*ast.Ident)
			if !ok {
				continue
			}
			bv, ok := identVar(c.info, base)
			if !ok {
				continue
			}
			r, tracked := c.results[bv]
			if !tracked {
				continue
			}
			f, ok := selectedField(c.info, lhs)
			if !ok {
				continue
			}
			r.state[f] = c.classify(rhs)
			r.assign[f] = as
		}
	}
}

// resultOf interprets an expression as a candidate Clone result: a
// whole-receiver copy, a composite literal of the receiver type, a
// previously tracked local, or (on returns) the bare receiver.
func (c *checker) resultOf(e ast.Expr, origin ast.Node) *result {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if s, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(s.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := identVar(c.info, e)
		if !ok {
			return nil
		}
		if r, tracked := c.results[v]; tracked {
			return r
		}
		if v == c.recv {
			// `d := *c`, `d := c`, or `return c`: a whole-receiver copy —
			// every reference field starts out shared.
			r := &result{
				state:  make(map[*types.Var]fieldState, len(c.refFields)),
				assign: make(map[*types.Var]ast.Node),
				origin: origin,
			}
			for _, f := range c.refFields {
				r.state[f] = stateAliased
			}
			return r
		}
		return nil
	case *ast.CompositeLit:
		if t := c.info.TypeOf(e); t == nil || !types.Identical(deref(t), c.recvType) {
			return nil
		}
		r := &result{
			state:  make(map[*types.Var]fieldState, len(c.refFields)),
			assign: make(map[*types.Var]ast.Node),
			origin: origin,
		}
		// Unlisted fields are zero-valued: nil is not an alias.
		for _, f := range c.refFields {
			r.state[f] = stateFresh
		}
		st := c.recvType.Underlying().(*types.Struct)
		for i, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if f, ok := c.info.Uses[key].(*types.Var); ok {
					r.state[f] = c.classify(kv.Value)
					r.assign[f] = elt
				}
				continue
			}
			if i < st.NumFields() {
				r.state[st.Field(i)] = c.classify(elt)
				r.assign[st.Field(i)] = elt
			}
		}
		return r
	}
	return nil
}

// classify decides whether an expression produces fresh backing storage or
// still aliases the receiver.
func (c *checker) classify(e ast.Expr) fieldState {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		return c.classifyCall(e)
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit:
		return stateFresh
	case *ast.SliceExpr:
		return c.classify(e.X) // x[a:b] shares x's backing array
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.classify(e.X) // &x aliases x's storage
		}
		return stateFresh
	case *ast.StarExpr:
		return c.classify(e.X)
	case *ast.IndexExpr:
		return c.classify(e.X) // c.ptrs[i] draws from receiver storage
	case *ast.Ident:
		if e.Name == "nil" {
			return stateFresh
		}
	}
	// A path expression: aliased iff it is rooted at the receiver or at a
	// tracked result whose selected field is itself still aliased.
	p, ok := flowkit.ResolvePath(c.info, e, nil)
	if !ok {
		return stateFresh
	}
	if r, tracked := c.results[p.Base]; tracked && len(p.Fields) > 0 {
		return r.state[p.Fields[0]]
	}
	if p.Base == c.recv {
		return stateAliased
	}
	return stateFresh
}

// classifyCall judges a call expression's result.
func (c *checker) classifyCall(call *ast.CallExpr) fieldState {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		switch id.Name {
		case "append":
			// Fresh iff the seed slice is fresh: append([]T(nil), c.f...)
			// reallocates, append(c.f, x) usually does not.
			if len(call.Args) == 0 {
				return stateFresh
			}
			return c.classify(call.Args[0])
		case "make", "new":
			return stateFresh
		}
	}
	// Conversion: classify the converted operand ([]T(nil) is fresh,
	// sliceAlias(c.f) keeps the alias).
	if tv, ok := c.info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.classify(call.Args[0])
	}
	// Clone calls produce fresh values by definition — each Clone is itself
	// checked wherever it is declared.
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		if f.Sel.Name == "Clone" {
			return stateFresh
		}
	case *ast.Ident:
		if f.Name == "Clone" {
			return stateFresh
		}
	}
	// In-package helper: the interprocedural summary proves whether any
	// result may retain (alias) an argument; if so, and that argument is
	// receiver-rooted, the helper's result is still coupled to the
	// receiver.
	if rc, ok := c.cg.CallAt(call); ok && len(rc.Targets) > 0 {
		for _, t := range rc.Targets {
			sum := c.sums.ByFunc[t]
			if sum == nil {
				continue
			}
			for _, ri := range sum.Retains {
				arg := boundArg(call, ri)
				if arg == nil {
					return stateAliased // unprovable binding: assume the worst
				}
				if c.classify(arg) == stateAliased {
					return stateAliased
				}
			}
		}
		return stateFresh
	}
	// Cross-package call: trusted fresh (see package doc).
	return stateFresh
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

// refType reports whether a field of this type shares storage when copied
// by value: pointers, slices and maps do.
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func identVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

func selectedField(info *types.Info, sel *ast.SelectorExpr) (*types.Var, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, false
	}
	v, ok := s.Obj().(*types.Var)
	return v, ok
}
