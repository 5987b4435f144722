package streamexec

import (
	"fmt"

	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
	"xqgo/internal/projection"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// The streamability analysis: an abstract interpretation over the optimized
// expression tree (the same style as optimizer.ExtractPaths) that splits a
// plan into a SPINE — a root-anchored prefix of forward element steps the
// event automaton can match against the raw token stream — and a RESIDUAL —
// the rest of the plan, rewritten to evaluate relative to one spine match
// ("window"). The residual, when present, runs over a window-sized
// mini-store, so the buffer bound is one window subtree (Koch et al.'s
// buffer-minimization argument specialized to this decomposition); an
// identity residual needs no store at all. Anything the analysis cannot
// prove window-local is classified store-required and falls back to the
// regular engine.

// decomp is the spine/residual split of a plan body.
type decomp struct {
	spine []projection.Step
	// pendingDesc: a trailing descendant-or-self::node() step whose depth
	// wildcard has not been attached to a following step yet.
	pendingDesc bool
	// residual is the per-window plan relative to the window element; nil
	// means identity (the window itself is the result).
	residual expr.Expr
}

// childOnly reports whether every spine step is a child step (windows at a
// fixed depth: they can never nest, so at most one is open at a time and
// results stay in global document order without cross-window bookkeeping).
func (d *decomp) childOnly() bool {
	for _, s := range d.spine {
		if s.AnyDepth {
			return false
		}
	}
	return true
}

// analyzeBody decomposes a query body. ok=false (with a reason) means the
// body has no streamable shape at all.
func analyzeBody(body expr.Expr) (decomp, bool, string) {
	if fl, isFlwor := body.(*expr.Flwor); isFlwor {
		return analyzeFlwor(fl)
	}
	d, ok, why := walkPath(body)
	if !ok {
		return d, false, why
	}
	d.finishPending(body)
	return d, true, ""
}

// analyzeFlwor decomposes a FLWOR whose first clause iterates an absolute
// path: the path's spine drives the windows and the whole FLWOR — with the
// first binding sequence replaced by the path's residual — becomes the
// per-window residual. order by / group by need the full tuple stream and
// an "at" position on the window clause would restart per window, so those
// forms stay on the store engine.
func analyzeFlwor(fl *expr.Flwor) (decomp, bool, string) {
	if len(fl.Group) > 0 {
		return decomp{}, false, "group by needs the full tuple stream"
	}
	if len(fl.Order) > 0 {
		return decomp{}, false, "order by needs the full tuple stream"
	}
	if len(fl.Clauses) == 0 || fl.Clauses[0].Kind != expr.ForClause {
		return decomp{}, false, "FLWOR does not start with a for clause"
	}
	if !fl.Clauses[0].PosVar.IsZero() {
		return decomp{}, false, "positional variable on the window clause counts across windows"
	}
	d, ok, why := walkPath(fl.Clauses[0].In)
	if !ok {
		return d, false, why
	}
	d.finishPending(fl.Clauses[0].In)
	in := d.residual
	if in == nil {
		in = &expr.ContextItem{Base: base(fl.Clauses[0].In)}
	}
	res := fl.WithChildren(fl.Children()).(*expr.Flwor) // deep-ish copy of clause slices
	res.Clauses[0].In = in
	d.residual = res
	return d, true, ""
}

// walkPath walks the leftmost chain of a path expression down to the
// leading "/" and folds each right-hand step into either the spine or the
// residual.
func walkPath(e expr.Expr) (decomp, bool, string) {
	switch t := e.(type) {
	case *expr.Root:
		return decomp{}, true, ""
	case *expr.Path:
		d, ok, why := walkPath(t.L)
		if !ok {
			return d, false, why
		}
		d.apply(t.R, t.NoReorder)
		return d, true, ""
	default:
		return decomp{}, false, fmt.Sprintf("result is not a path over the streamed document (%T)", e)
	}
}

// apply folds one path component into the decomposition.
func (d *decomp) apply(r expr.Expr, noReorder bool) {
	if d.residual != nil {
		d.residual = &expr.Path{Base: base(r), L: d.residual, R: r, NoReorder: noReorder}
		return
	}
	switch t := r.(type) {
	case *expr.Step:
		switch t.Axis {
		case expr.AxisChild:
			if s, ok := optimizer.StepFromTest(t.Test, false); ok {
				if d.pendingDesc {
					s.AnyDepth = true
					d.pendingDesc = false
				}
				d.spine = append(d.spine, s)
				return
			}
		case expr.AxisDescendant:
			if s, ok := optimizer.StepFromTest(t.Test, true); ok {
				d.pendingDesc = false
				d.spine = append(d.spine, s)
				return
			}
		case expr.AxisDescendantOrSelf:
			if t.Test.Kind == xtypes.TestAnyKind {
				// The classical // encoding: defer the depth wildcard onto
				// the next step.
				d.pendingDesc = true
				return
			}
		}
		d.beginResidual(r)

	case *expr.Filter:
		// A filtered step: with window-base-safe predicates the step still
		// extends the spine and the predicates become a filter on the
		// window itself. Otherwise the window stops one level up and the
		// whole filtered step evaluates inside it (this keeps positional
		// predicates correct: their sibling group is window-internal).
		if st, isStep := t.In.(*expr.Step); isStep && !d.pendingDesc && st.Axis == expr.AxisChild {
			if s, ok := optimizer.StepFromTest(st.Test, false); ok && baseSafePreds(t.Preds) {
				d.spine = append(d.spine, s)
				d.residual = &expr.Filter{
					Base:  base(r),
					In:    &expr.ContextItem{Base: base(r)},
					Preds: t.Preds,
				}
				return
			}
		}
		d.beginResidual(r)

	default:
		d.beginResidual(r)
	}
}

// beginResidual ends the spine: r evaluates relative to the window. A
// pending depth wildcard re-materializes as descendant-or-self::node()
// under the window.
func (d *decomp) beginResidual(r expr.Expr) {
	if d.pendingDesc {
		d.pendingDesc = false
		d.residual = &expr.Path{
			Base: base(r),
			L:    &expr.Step{Base: base(r), Axis: expr.AxisDescendantOrSelf, Test: xtypes.NodeTest{Kind: xtypes.TestAnyKind}},
			R:    r,
		}
		return
	}
	d.residual = r
}

// finishPending resolves a depth wildcard left dangling at the end of the
// path (".../descendant-or-self::node()"): the windows plus all their
// descendants are the result, which is exactly the step itself evaluated
// per window.
func (d *decomp) finishPending(at expr.Expr) {
	if d.pendingDesc && d.residual == nil {
		d.pendingDesc = false
		d.residual = &expr.Step{Base: base(at), Axis: expr.AxisDescendantOrSelf, Test: xtypes.NodeTest{Kind: xtypes.TestAnyKind}}
	}
}

func base(e expr.Expr) expr.Base { return expr.Base{P: e.Span()} }

// baseSafePreds reports whether every predicate is statically boolean —
// never a number, so never positional. Window-base predicates see a
// singleton focus instead of the full sibling group, which is only
// equivalent for position-independent boolean predicates.
func baseSafePreds(preds []expr.Expr) bool {
	for _, p := range preds {
		if !baseSafePred(p) {
			return false
		}
	}
	return true
}

// booleanCalls are built-ins that always return xs:boolean.
var booleanCalls = map[string]bool{
	"not": true, "exists": true, "empty": true, "boolean": true,
	"contains": true, "starts-with": true, "ends-with": true,
	"true": true, "false": true,
}

func baseSafePred(p expr.Expr) bool {
	switch t := p.(type) {
	case *expr.Compare, *expr.Logic, *expr.Quantified, *expr.InstanceOf, *expr.NodeCompare:
		return true
	case *expr.Cast:
		return t.Castable
	case *expr.Step, *expr.Path, *expr.ContextItem:
		return true // node sequence: effective boolean value, never numeric
	case *expr.Filter:
		return baseSafePred(t.In)
	case *expr.Call:
		return (t.Name.Space == fnSpace || t.Name.Space == "") && booleanCalls[t.Name.Local]
	case *expr.Literal:
		return t.Val.T == xdm.TBoolean
	}
	return false
}

// ---- residual safety ----

// focusKind tracks what the focus means at a position of the residual tree.
type focusKind uint8

const (
	// focusWindow: the position is on the spine-replacement chain the
	// decomposition built; its focus is the window element, by construction.
	focusWindow focusKind = iota
	// focusLocal: the focus was rebound by an enclosing path step or
	// predicate to window-internal nodes.
	focusLocal
	// focusOuter: the focus is inherited from the query's top level — in the
	// original plan that was the document root, in the residual it would be
	// the window. Context-dependent expressions here would silently change
	// meaning, so they make the plan store-required.
	focusOuter
)

const fnSpace = "http://www.w3.org/2005/xpath-functions"

// escapingCalls are built-ins whose result depends on the document beyond
// the window subtree (or on registries the mini-store does not carry).
var escapingCalls = map[string]bool{
	"doc": true, "document": true, "doc-available": true, "collection": true,
	"root": true, "base-uri": true, "document-uri": true,
	"id": true, "idref": true, "lang": true,
}

// contextCalls are built-ins that consult the focus when called without an
// explicit argument.
var contextCalls = map[string]bool{
	"string": true, "number": true, "data": true, "name": true,
	"local-name": true, "namespace-uri": true, "normalize-space": true,
	"string-length": true, "position": true, "last": true,
}

// checkResidualRoot validates the residual built by the decomposition: the
// chain positions carry the intended window focus, everything hanging off
// them inherited the top-level focus in the original plan.
func checkResidualRoot(e expr.Expr) string {
	switch t := e.(type) {
	case *expr.ContextItem:
		return ""
	case *expr.Path:
		if why := checkResidualRoot(t.L); why != "" {
			return why
		}
		return checkResidual(t.R, focusLocal)
	case *expr.Filter:
		if why := checkResidualRoot(t.In); why != "" {
			return why
		}
		for _, p := range t.Preds {
			if why := checkResidual(p, focusLocal); why != "" {
				return why
			}
		}
		return ""
	case *expr.Step:
		return checkResidual(t, focusWindow)
	case *expr.Flwor:
		// The FLWOR residual: the first clause's In is the chain, the rest
		// of the FLWOR evaluated with the (unchanged) outer focus.
		if why := checkResidualRoot(t.Clauses[0].In); why != "" {
			return why
		}
		for i := 1; i < len(t.Clauses); i++ {
			if why := checkResidual(t.Clauses[i].In, focusOuter); why != "" {
				return why
			}
		}
		if t.Where != nil {
			if why := checkResidual(t.Where, focusOuter); why != "" {
				return why
			}
		}
		return checkResidual(t.Ret, focusOuter)
	default:
		return checkResidual(e, focusWindow)
	}
}

// checkResidual walks a residual subtree and reports (as a non-empty
// reason) any construct whose value could depend on document content
// outside the window, or whose meaning would shift when re-rooted.
func checkResidual(e expr.Expr, fk focusKind) string {
	switch t := e.(type) {
	case nil:
		return ""

	case *expr.Root:
		return "absolute path inside the per-window expression"

	case *expr.ContextItem:
		if fk == focusOuter {
			return "context item used outside the spine (refers to the document, not the window)"
		}
		return ""

	case *expr.Step:
		if fk == focusOuter {
			return "path step relative to the document root outside the spine"
		}
		switch t.Axis {
		case expr.AxisChild, expr.AxisDescendant, expr.AxisDescendantOrSelf,
			expr.AxisSelf, expr.AxisAttribute:
			return ""
		default:
			return fmt.Sprintf("%s axis can escape the window", t.Axis)
		}

	case *expr.Path:
		if why := checkResidual(t.L, fk); why != "" {
			return why
		}
		return checkResidual(t.R, focusLocal)

	case *expr.Filter:
		if why := checkResidual(t.In, fk); why != "" {
			return why
		}
		for _, p := range t.Preds {
			if why := checkResidual(p, focusLocal); why != "" {
				return why
			}
		}
		return ""

	case *expr.Call:
		if t.Name.Space == fnSpace || t.Name.Space == "" {
			if escapingCalls[t.Name.Local] {
				return fmt.Sprintf("fn:%s reaches outside the window", t.Name.Local)
			}
			if len(t.Args) == 0 && contextCalls[t.Name.Local] && fk == focusOuter {
				return fmt.Sprintf("fn:%s() consults the outer focus", t.Name.Local)
			}
		}
		for _, a := range t.Args {
			if why := checkResidual(a, fk); why != "" {
				return why
			}
		}
		return ""

	default:
		// Every other form — literals, variables, FLWOR, conditionals,
		// comparisons, constructors, type operators — passes the focus it
		// was given through to its children unchanged.
		for _, c := range e.Children() {
			if why := checkResidual(c, fk); why != "" {
				return why
			}
		}
		return ""
	}
}
