package expr

import (
	"slices"

	"xqgo/internal/functions"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// This file implements the dataflow analyses of the paper's "Xquery
// expression analysis" slide: variable usage (how often, inside a loop?),
// node creation, context sensitivity, error capability, and the
// ordered/distinct guarantees that let the optimizer elide document-order
// sorting and duplicate elimination.

// boundVars returns the variables an expression node binds for each child
// position. The result is indexed like Children(): bound[i] lists variables
// in scope for child i that the node itself introduces.
func boundVars(e Expr) [][]xdm.QName {
	switch n := e.(type) {
	case *Flwor:
		out := make([][]xdm.QName, 0, len(n.Clauses)+len(n.Group)+len(n.Order)+2)
		var inScope []xdm.QName
		for _, cl := range n.Clauses {
			out = append(out, append([]xdm.QName(nil), inScope...))
			inScope = append(inScope, cl.Var)
			if !cl.PosVar.IsZero() {
				inScope = append(inScope, cl.PosVar)
			}
		}
		if n.Where != nil {
			out = append(out, inScope)
		}
		for _, g := range n.Group {
			out = append(out, append([]xdm.QName(nil), inScope...))
			inScope = append(inScope, g.Var)
		}
		for range n.Order {
			out = append(out, inScope)
		}
		out = append(out, inScope) // return clause
		return out
	case *Quantified:
		out := make([][]xdm.QName, 0, len(n.Binds)+1)
		var inScope []xdm.QName
		for _, b := range n.Binds {
			out = append(out, append([]xdm.QName(nil), inScope...))
			inScope = append(inScope, b.Var)
		}
		out = append(out, inScope)
		return out
	case *Typeswitch:
		out := make([][]xdm.QName, 0, len(n.Cases)+2)
		out = append(out, nil) // input
		for _, c := range n.Cases {
			if !c.Var.IsZero() {
				out = append(out, []xdm.QName{c.Var})
			} else {
				out = append(out, nil)
			}
		}
		if !n.DefaultVar.IsZero() {
			out = append(out, []xdm.QName{n.DefaultVar})
		} else {
			out = append(out, nil)
		}
		return out
	}
	return nil
}

// BoundIn returns the variables e binds anywhere inside it (Clark keys).
func BoundIn(e Expr) map[string]bool {
	out := map[string]bool{}
	Walk(e, func(x Expr) bool {
		for _, vs := range boundVars(x) {
			for _, q := range vs {
				out[q.Clark()] = true
			}
		}
		return true
	})
	return out
}

// FreeVars returns the free variables of e (keys in Clark notation).
func FreeVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	EachFree(e, func(v *VarRef) { out[v.Name.Clark()] = true })
	return out
}

// EachFree calls free on each reference in e to a variable e does not bind.
func EachFree(e Expr, free func(*VarRef)) { collectFree(e, nil, free) }

// collectFree keeps the bindings in scope as a stack, innermost last.
func collectFree(e Expr, bound []xdm.QName, free func(*VarRef)) {
	if e == nil {
		return
	}
	if v, ok := e.(*VarRef); ok {
		for _, q := range bound {
			if q.Equal(v.Name) {
				return
			}
		}
		free(v)
		return
	}
	bv := boundVars(e)
	for i, c := range e.Children() {
		inner := bound
		if bv != nil && len(bv[i]) > 0 {
			inner = append(bound[:len(bound):len(bound)], bv[i]...)
		}
		collectFree(c, inner, free)
	}
}

// UseInfo describes how an expression uses one variable.
type UseInfo struct {
	// Count is the number of syntactic references (loop bodies count once).
	Count int
	// InLoop reports whether some reference sits inside a for-clause body,
	// a quantifier body, or a recursive-capable function argument — i.e. the
	// variable's value may be demanded many times.
	InLoop bool
}

// UsesOf analyzes how e uses the variable named q. Shadowing is respected.
func UsesOf(e Expr, q xdm.QName) UseInfo {
	var info UseInfo
	usesOf(e, q, false, &info)
	return info
}

func usesOf(e Expr, q xdm.QName, inLoop bool, info *UseInfo) {
	switch n := e.(type) {
	case nil:
	case *VarRef:
		if n.Name.Equal(q) {
			info.Count++
			info.InLoop = info.InLoop || inLoop
		}
	case *Path, *Filter: // right side and predicates run once per input item
		var buf [2]Expr
		for i, c := range children(e, &buf) {
			usesOf(c, q, inLoop || i > 0, info)
		}
	case *Flwor, *Quantified, *Typeswitch:
		bv, loopChild := boundVars(e), loopChildren(e)
	children:
		for i, c := range e.Children() {
			for _, b := range bv[i] {
				if b.Equal(q) {
					continue children // shadowed
				}
			}
			usesOf(c, q, inLoop || loopChild != nil && loopChild[i], info)
		}
	default:
		var buf [2]Expr
		for _, c := range children(e, &buf) {
			usesOf(c, q, inLoop, info)
		}
	}
}

// loopChildren marks which child positions are evaluated once per binding
// tuple ("part of a loop").
func loopChildren(e Expr) []bool {
	switch n := e.(type) {
	case *Flwor:
		out := make([]bool, 0, 8)
		seenFor := false
		for _, cl := range n.Clauses {
			out = append(out, seenFor) // clause input runs per outer tuple
			if cl.Kind == ForClause {
				seenFor = true
			}
		}
		if n.Where != nil {
			out = append(out, seenFor)
		}
		for range n.Group {
			out = append(out, seenFor)
		}
		for range n.Order {
			out = append(out, seenFor)
		}
		out = append(out, seenFor)
		return out
	case *Quantified:
		out := make([]bool, 0, len(n.Binds)+1)
		seen := false
		for range n.Binds {
			out = append(out, seen)
			seen = true
		}
		out = append(out, true)
		return out
	}
	return nil
}

// CreatesNodes reports whether evaluating e can ever produce newly
// constructed nodes — the paper's key side-effect test gating LET folding
// and common-subexpression factorization. Function calls are conservatively
// assumed to construct unless the registry says otherwise; the optimizer
// passes a resolver for that.
func CreatesNodes(e Expr, callCreates func(*Call) bool) bool {
	return (&Analysis{callCreates: callCreates}).Of(e).CreatesNodes
}

// UsesContext reports whether e references the context item (".", a leading
// step, or a call that ReadsFocus) outside a nested scope that rebinds it.
// Conservative: any ContextItem/Root/Step below e that is not under a Path
// RHS or Filter predicate counts.
func UsesContext(e Expr) bool { return new(Analysis).Of(e).UsesContext }

// CanRaiseError conservatively reports whether evaluating e can raise a
// dynamic error. Literals, variable references, constructors over safe
// content, and pure navigation cannot; arithmetic, casts, and most function
// calls can.
func CanRaiseError(e Expr) bool { return new(Analysis).Of(e).CanRaiseError }

// Positional reports whether e reads its own focus's position or size
// (fn:position, fn:last).
func Positional(e Expr) bool { return new(Analysis).Of(e).Positional }

// ReadsLast reports whether e reads its own focus's size (fn:last): what
// makes its input worth keeping.
func ReadsLast(e Expr) bool { return new(Analysis).Of(e).ReadsLast }

// safeCalls lists built-ins that never raise dynamic errors on any input:
// every other one raises on some argument, if only on a sequence of two.
var safeCalls = map[string]bool{
	"true": true, "false": true, "count": true, "empty": true,
	"exists": true, "position": true, "last": true,
}

// ebvSafe reports whether taking the effective boolean value of e cannot
// raise err:FORG0006: e is nodes, or at most one boolean or, where
// numeric is set (a predicate), one number.
func ebvSafe(e Expr, numeric bool) bool {
	t := Infer(e, nil)
	switch {
	case t.Item.Kind != xtypes.KAnyItem && t.Item.Kind != xtypes.KAtomic:
		return true
	case t.Item.Kind == xtypes.KAnyItem || t.Occ != xtypes.OccOne && t.Occ != xtypes.OccOpt:
		return false
	}
	return t.Item.Type == xdm.TBoolean || numeric && t.Item.Type.IsNumeric()
}

// Builtin returns the registry record of the built-in c calls; nil for a
// user or constructor function, a wrong arity, and the focus accessors.
func Builtin(c *Call) *functions.Func {
	if c.Name.Space != functions.Namespace && c.Name.Space != "" {
		return nil
	}
	f, _ := functions.Lookup(c.Name.Local, len(c.Args))
	return f
}

// focusAccessor reports whether c is fn:position() or fn:last(), which the
// runtime compiles itself.
func focusAccessor(c *Call) bool {
	return (c.Name.Space == functions.Namespace || c.Name.Space == "") &&
		(c.Name.Local == "position" || c.Name.Local == "last")
}

// IsBuiltin reports whether c calls the built-in fn:local with nargs
// arguments.
func IsBuiltin(c *Call, local string, nargs int) bool {
	return (c.Name.Space == functions.Namespace || c.Name.Space == "") &&
		c.Name.Local == local && len(c.Args) == nargs
}

// safeCall reports whether the call itself never raises a dynamic error:
// a safe built-in, or fn:subsequence with numeric literal positions.
func safeCall(c *Call) bool {
	if Builtin(c) == nil {
		return false
	}
	if c.Name.Local != "subsequence" {
		return safeCalls[c.Name.Local]
	}
	for _, a := range c.Args[1:] {
		if l, ok := a.(*Literal); !ok || !l.Val.T.IsNumeric() {
			return false
		}
	}
	return true
}

// ReadsFocus reports whether the call itself reads the focus: a focus
// accessor, or a built-in called without the argument the focus stands for.
func ReadsFocus(c *Call) bool {
	if focusAccessor(c) {
		return true
	}
	f := Builtin(c)
	return f != nil && len(c.Args) == 0 && f.Props.UsesContext
}

// Facts are the analyses above for one node, plus its size, whether it
// touches data (a path, call or set operation anywhere in it), whether it
// is Positional (it calls fn:position or fn:last on its own focus) and
// whether it ReadsLast (it calls fn:last on its own focus).
type Facts struct {
	Size                                                                         int
	CreatesNodes, UsesContext, CanRaiseError, TouchesData, Positional, ReadsLast bool
	hash                                                                         uint64 // 0 until Hash sets it
}

// Analysis computes Facts once per node object, bottom-up: a node's facts
// follow from its kind and its children's. It keys them by node identity,
// so it is valid while the nodes it has seen are not mutated; the optimizer
// never mutates a node, it builds new ones. An Analysis made without
// NewAnalysis remembers nothing.
type Analysis struct {
	callCreates func(*Call) bool
	memo        map[Expr]Facts
	p           printer
}

// NewAnalysis returns an empty Analysis whose CreatesNodes asks callCreates
// about calls, as CreatesNodes does.
func NewAnalysis(callCreates func(*Call) bool) *Analysis {
	return &Analysis{callCreates: callCreates, memo: map[Expr]Facts{}}
}

// Of returns the facts of e.
func (a *Analysis) Of(e Expr) Facts {
	if f, ok := a.memo[e]; ok || e == nil {
		return f
	}
	f := Facts{Size: 1}
	var first Facts
	var buf [2]Expr
	for i, c := range children(e, &buf) {
		cf := a.Of(c)
		if i == 0 {
			first = cf
		}
		f.Size += cf.Size
		f.CreatesNodes = f.CreatesNodes || cf.CreatesNodes
		f.UsesContext = f.UsesContext || cf.UsesContext
		f.CanRaiseError = f.CanRaiseError || cf.CanRaiseError
		f.TouchesData = f.TouchesData || cf.TouchesData
		f.Positional = f.Positional || cf.Positional
		f.ReadsLast = f.ReadsLast || cf.ReadsLast
	}
	switch n := e.(type) {
	case *ElemConstructor, *AttrConstructor, *TextConstructor,
		*CommentConstructor, *PIConstructor, *DocConstructor:
		f.CreatesNodes = true
		if c, ok := n.(*ElemConstructor); ok {
			// A computed name, or content that may hold an attribute: a
			// duplicate (err:XQDY0025) or one after content (err:XQTY0024).
			f.CanRaiseError = f.CanRaiseError || c.NameExpr != nil || slices.ContainsFunc(c.Content, func(x Expr) bool {
				k := Infer(x, nil).Item.Kind
				return k == xtypes.KAnyItem || k == xtypes.KAnyNode || k == xtypes.KAttribute
			})
		}
	case *ContextItem, *Root, *Step:
		f.UsesContext = true
	case *Arith, *Neg, *Cast, *Treat, *Compare:
		f.CanRaiseError = true
	case *Path: // the right side's context comes from the left
		f.UsesContext, f.Positional, f.ReadsLast, f.TouchesData = first.UsesContext, first.Positional, first.ReadsLast, true
	case *Filter:
		f.UsesContext, f.Positional, f.ReadsLast = first.UsesContext, first.Positional, first.ReadsLast
		for _, p := range n.Preds {
			f.CanRaiseError = f.CanRaiseError || !ebvSafe(p, true)
		}
	case *If:
		f.CanRaiseError = f.CanRaiseError || !ebvSafe(n.Cond, false)
	case *Logic:
		f.CanRaiseError = f.CanRaiseError || !ebvSafe(n.L, false) || !ebvSafe(n.R, false)
	case *Quantified:
		f.CanRaiseError = f.CanRaiseError || !ebvSafe(n.Satisfies, false)
	case *Flwor: // a where clause's value, or a sort or group key of two items
		f.CanRaiseError = f.CanRaiseError || n.Where != nil && !ebvSafe(n.Where, false) ||
			len(n.Order) > 0 || len(n.Group) > 0
	case *SetOp:
		f.TouchesData = true
	case *Call:
		f.CreatesNodes = f.CreatesNodes || a.callCreates == nil || a.callCreates(n)
		f.UsesContext = f.UsesContext || ReadsFocus(n)
		f.Positional = f.Positional || focusAccessor(n)
		f.ReadsLast = f.ReadsLast || IsBuiltin(n, "last", 0)
		f.CanRaiseError = f.CanRaiseError || !safeCall(n)
		f.TouchesData = true
	}
	if a.memo != nil {
		a.memo[e] = f
	}
	return f
}

// Hash returns a structural hash of e: trees Equal reports equal hash alike.
func (a *Analysis) Hash(e Expr) uint64 {
	f := a.Of(e)
	if f.hash != 0 || e == nil {
		return f.hash
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range a.label(e) {
		h = (h ^ uint64(b)) * prime
	}
	var buf [2]Expr
	for _, c := range children(e, &buf) {
		h = (h ^ a.Hash(c)) * prime
	}
	f.hash = h | 1
	a.memo[e] = f
	return f.hash
}

// Equal reports whether x and y are the same tree, source positions aside.
func (a *Analysis) Equal(x, y Expr) bool {
	if x == y {
		return true
	}
	if x == nil || y == nil || a.Hash(x) != a.Hash(y) {
		return false
	}
	var bx, by [2]Expr
	xc, yc := children(x, &bx), children(y, &by)
	lx := string(a.label(x))
	if len(xc) != len(yc) || lx != string(a.label(y)) {
		return false
	}
	for i := range xc {
		if !a.Equal(xc[i], yc[i]) {
			return false
		}
	}
	return true
}

// label renders e alone: its children as "·", plus what String leaves out.
func (a *Analysis) label(e Expr) []byte {
	a.p.buf, a.p.only = a.p.buf[:0], e
	a.p.expr(e)
	return a.p.buf
}

// OrderProps captures the paper's "guaranteed to return results in doc
// order / node-distinct" analysis.
type OrderProps struct {
	// Sorted: the result is a node sequence in document order.
	Sorted bool
	// Distinct: the result contains no duplicate nodes.
	Distinct bool
	// Disjoint: no result node is an ancestor of another. This is the
	// property that lets a descendant step stay sorted: descendants of
	// ancestor-disjoint nodes enumerate in document order, while
	// descendants of nested nodes interleave (the //a/b row of the
	// paper's table).
	Disjoint bool
}

// keptInput returns e itself or, when e keeps a subsequence of one input
// (a filter, fn:subsequence), that input; nil for any other expression.
func keptInput(e Expr) Expr {
	switch n := e.(type) {
	case *Step:
		return n
	case *Filter:
		return n.In
	case *Call:
		if Builtin(n) != nil && n.Name.Local == "subsequence" {
			return n.Args[0]
		}
	}
	return nil
}

// StepOrderProps computes order/distinctness guarantees for a Path whose
// input has the given properties and whose RHS is the given step, per the
// table in the paper:
//
//	$document/a/b/c — doc order, no duplicates (child steps preserve all)
//	$document/a//b  — doc order, no duplicates (descendants of disjoint
//	                  nodes; the result itself is no longer disjoint)
//	$document//a/b  — NOT guaranteed doc order, but duplicate-free
//	                  (children of nested nodes can interleave)
//	$document//a//b — nothing can be said
func StepOrderProps(in OrderProps, s *Step) OrderProps {
	if !in.Sorted || !in.Distinct {
		return OrderProps{}
	}
	switch s.Axis {
	case AxisSelf:
		return in
	case AxisChild, AxisAttribute:
		// Children of distinct nodes are distinct and mutually disjoint;
		// document order holds only for a disjoint input.
		return OrderProps{Sorted: in.Disjoint, Distinct: true, Disjoint: in.Disjoint}
	case AxisDescendant, AxisDescendantOrSelf:
		if in.Disjoint {
			return OrderProps{Sorted: true, Distinct: true, Disjoint: false}
		}
		return OrderProps{}
	case AxisParent, AxisAncestor, AxisAncestorOrSelf:
		// Different children share parents: duplicates possible.
		return OrderProps{}
	case AxisFollowingSibling, AxisPrecedingSibling:
		return OrderProps{}
	}
	return OrderProps{}
}

// Props computes the order guarantees of an expression. The resolver maps
// variables to known properties (e.g. a for-variable bound to a sorted
// path is a single node: disjoint trivially).
func Props(e Expr, varProps func(xdm.QName) OrderProps) OrderProps {
	switch n := e.(type) {
	case *Root:
		return OrderProps{Sorted: true, Distinct: true, Disjoint: true}
	case *ContextItem:
		// A single item: trivially sorted & distinct; assumed one tree.
		return OrderProps{Sorted: true, Distinct: true, Disjoint: true}
	case *VarRef:
		if varProps != nil {
			return varProps(n.Name)
		}
		return OrderProps{}
	case *Call:
		if f := Builtin(n); f != nil && f.Props.Reach == functions.ReachRoot {
			return OrderProps{Sorted: true, Distinct: true, Disjoint: true} // one node
		}
		if kept := keptInput(n); kept != nil {
			return Props(kept, varProps)
		}
		return OrderProps{}
	case *Path:
		in := Props(n.L, varProps)
		// A filter or fn:subsequence keeps a subsequence of a step: order,
		// distinctness and disjointness all survive it.
		if s, ok := keptInput(n.R).(*Step); ok {
			return StepOrderProps(in, s)
		}
		return OrderProps{}
	case *Filter:
		return Props(n.In, varProps)
	case *Step:
		// A bare step applies to one context item.
		return StepOrderProps(OrderProps{Sorted: true, Distinct: true, Disjoint: true}, n)
	}
	return OrderProps{}
}
