package optimizer

import (
	"fmt"
	"math"

	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// ---- constant folding ----

// constFold evaluates constant sub-expressions at compile time: arithmetic,
// value comparisons and logic over literals, literal conditionals, and
// constant casts. Expressions that would raise errors are left alone (the
// error must be raised at run time, and only if evaluated).
func constFold(x expr.Expr) expr.Expr {
	switch n := x.(type) {
	case *expr.Arith:
		l, okL := literalOf(n.L)
		r, okR := literalOf(n.R)
		if !okL || !okR {
			return nil
		}
		v, err := xdm.Arith(n.Op, l, r)
		if err != nil {
			return nil // fold would hide a runtime error
		}
		return expr.NewLiteral(n.Span(), v)
	case *expr.Neg:
		l, ok := literalOf(n.X)
		if !ok {
			return nil
		}
		v, err := xdm.Negate(l)
		if err != nil {
			return nil
		}
		return expr.NewLiteral(n.Span(), v)
	case *expr.Compare:
		l, okL := literalOf(n.L)
		r, okR := literalOf(n.R)
		if !okL || !okR {
			return nil
		}
		var v bool
		var err error
		if n.Kind == expr.CompValue {
			v, err = xdm.ValueCompare(n.Op, l, r)
		} else {
			v, err = xdm.GeneralCompareItems(n.Op, l, r)
		}
		if err != nil {
			return nil
		}
		return expr.NewLiteral(n.Span(), xdm.NewBoolean(v))
	case *expr.Logic:
		l, okL := literalOf(n.L)
		if okL {
			lb, err := xdm.EffectiveBooleanItem(l, false)
			if err != nil {
				return nil
			}
			// Short-circuit folding is always safe; folding away the other
			// side is safe because and/or may skip errors
			// non-deterministically per the paper.
			if n.And && !lb {
				return expr.NewLiteral(n.Span(), xdm.False)
			}
			if !n.And && lb {
				return expr.NewLiteral(n.Span(), xdm.True)
			}
			// a and X == ebv(X) is not expressible without fn:boolean; keep.
		}
		r, okR := literalOf(n.R)
		if okL && okR {
			lb, err1 := xdm.EffectiveBooleanItem(l, false)
			rb, err2 := xdm.EffectiveBooleanItem(r, false)
			if err1 != nil || err2 != nil {
				return nil
			}
			if n.And {
				return expr.NewLiteral(n.Span(), xdm.NewBoolean(lb && rb))
			}
			return expr.NewLiteral(n.Span(), xdm.NewBoolean(lb || rb))
		}
		return nil
	case *expr.If:
		l, ok := literalOf(n.Cond)
		if !ok {
			return nil
		}
		b, err := xdm.EffectiveBooleanItem(l, false)
		if err != nil {
			return nil
		}
		if b {
			return n.Then
		}
		return n.Else
	case *expr.Cast:
		l, ok := literalOf(n.X)
		if !ok || n.T == xdm.TQName { // QName casts are context sensitive
			return nil
		}
		if n.Castable {
			return expr.NewLiteral(n.Span(), xdm.NewBoolean(xdm.Castable(l, n.T)))
		}
		v, err := xdm.Cast(l, n.T)
		if err != nil {
			return nil
		}
		return expr.NewLiteral(n.Span(), v)
	case *expr.Call:
		// Fold deterministic, error-free built-ins over literal arguments
		// (fn:true, fn:concat of literals, fn:not(fn:true()), ...).
		f := expr.Builtin(n)
		if f == nil || !f.Props.Deterministic || f.Props.UsesContext || f.Props.CanRaiseError {
			return nil
		}
		args := make([]xdm.Sequence, len(n.Args))
		for i, a := range n.Args {
			switch arg := a.(type) {
			case *expr.Literal:
				args[i] = xdm.Sequence{arg.Val}
			case *expr.Seq:
				if len(arg.Items) != 0 {
					return nil
				}
				args[i] = xdm.Sequence{}
			default:
				return nil
			}
		}
		out, err := f.Call(nil, args)
		if err != nil || len(out) != 1 {
			return nil
		}
		a, ok := out[0].(xdm.Atomic)
		if !ok {
			return nil
		}
		return expr.NewLiteral(n.Span(), a)
	}
	return nil
}

func literalOf(e expr.Expr) (xdm.Atomic, bool) {
	l, ok := e.(*expr.Literal)
	if !ok {
		return xdm.Atomic{}, false
	}
	return l.Val, true
}

// ---- LET folding ----

// foldLets applies the paper's LET-clause folding with its two safety
// conditions: (1) the bound expression never creates new nodes, OR the
// variable is used at most once and not inside a loop; (2) namespace
// context sensitivity does not arise because prefixes were resolved at
// parse time (the paper's "namespace resolution during query analysis" case
// — "(1) is not a problem"). Unused lets are dropped outright: the lazy
// runtime would never evaluate them anyway.
func (o *optimizer) foldLets(x expr.Expr) expr.Expr {
	f, ok := x.(*expr.Flwor)
	if !ok || len(f.Group) > 0 {
		return nil
	}
	for i, cl := range f.Clauses {
		if cl.Kind != expr.LetClause || cl.Type != nil {
			continue
		}
		shadowedLater := false
		for _, later := range f.Clauses[i+1:] {
			if later.Var.Equal(cl.Var) || later.PosVar.Equal(cl.Var) {
				shadowedLater = true
			}
		}
		if shadowedLater {
			continue
		}
		// Scope of the variable: later clauses + where + order + return.
		// A bound constructor stays bound even when used once: at its use
		// it would build its tree after trees built in between, and the
		// relative order of distinct trees follows construction.
		uses := expr.UsesOf(restOfFlwor(f, i+1), cl.Var)
		creates := o.facts.Of(cl.In).CreatesNodes
		switch {
		case uses.Count == 0:
			return dropClause(f, i)
		case isTrivial(cl.In):
			return substituteClause(f, i, cl)
		case uses.Count == 1 && !uses.InLoop && !creates:
			return substituteClause(f, i, cl)
		case !creates && !o.facts.Of(cl.In).CanRaiseError && uses.Count == 1:
			return substituteClause(f, i, cl)
		}
	}
	return nil
}

// restOfFlwor packages the part of a FLWOR after clause index i as a single
// expression for analysis purposes.
func restOfFlwor(f *expr.Flwor, from int) expr.Expr {
	return &expr.Flwor{Base: f.Base, Clauses: f.Clauses[from:], Where: f.Where, Order: f.Order, Ret: f.Ret}
}

// unitVar names the placeholder let that keeps a FLWOR whose clauses are all
// gone but whose where or order by stays.
var unitVar = xdm.QName{Space: "urn:xqgo:opt", Local: "unit"}

func dropClause(f *expr.Flwor, i int) expr.Expr {
	if len(f.Clauses) == 1 && f.Clauses[0].Var.Equal(unitVar) && (f.Where != nil || len(f.Order) > 0) {
		return nil // it would come straight back
	}
	out := *f
	out.Clauses = append(append([]expr.Clause(nil), f.Clauses[:i]...), f.Clauses[i+1:]...)
	return unitIfEmpty(&out)
}

// unitIfEmpty finishes a FLWOR that may have lost its last clause.
func unitIfEmpty(out *expr.Flwor) expr.Expr {
	if len(out.Clauses) > 0 {
		return out
	}
	if out.Where == nil && len(out.Order) == 0 {
		return out.Ret
	}
	out.Clauses = []expr.Clause{{Kind: expr.LetClause, Var: unitVar, In: expr.NewLiteral(out.Span(), xdm.NewInteger(0))}}
	return out
}

func substituteClause(f *expr.Flwor, i int, cl expr.Clause) expr.Expr {
	out := *f
	out.Clauses = append(append([]expr.Clause(nil), f.Clauses[:i]...), f.Clauses[i+1:]...)
	// Substitute in the remaining clauses/where/order/return.
	for j := i; j < len(out.Clauses); j++ {
		out.Clauses[j].In = replaceVar(out.Clauses[j].In, cl.Var, cl.In)
	}
	if out.Where != nil {
		out.Where = replaceVar(out.Where, cl.Var, cl.In)
	}
	out.Order = append([]expr.OrderSpec(nil), f.Order...)
	for j := range out.Order {
		out.Order[j].Key = replaceVar(out.Order[j].Key, cl.Var, cl.In)
	}
	out.Ret = replaceVar(out.Ret, cl.Var, cl.In)
	return unitIfEmpty(&out)
}

// isTrivial reports expressions whose duplication costs nothing and whose
// re-evaluation is observationally identical.
func isTrivial(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Literal, *expr.VarRef:
		return true
	}
	return false
}

// ---- FLWOR unnesting ----

// unnestFlwor merges "for $x in (for $y in E where C return R)" into a
// single FLWOR ("Problem relatively simpler than in OQL — no nested
// collections in XML"). Count variables and order-by block the rewrite,
// exactly the caveats the paper lists.
func unnestFlwor(x expr.Expr) expr.Expr {
	f, ok := x.(*expr.Flwor)
	if !ok || len(f.Group) > 0 {
		return nil
	}
	for i, cl := range f.Clauses {
		if cl.Kind != expr.ForClause || !cl.PosVar.IsZero() || cl.Type != nil {
			continue
		}
		inner, ok := cl.In.(*expr.Flwor)
		if !ok || len(inner.Order) > 0 || len(inner.Group) > 0 {
			continue
		}
		innerHasPos := false
		for _, icl := range inner.Clauses {
			if !icl.PosVar.IsZero() {
				innerHasPos = true
			}
		}
		if innerHasPos {
			continue
		}
		// Name capture: inner clause variables must not collide with outer
		// variables used later; rename them to fresh names.
		out := *f
		out.Clauses = append([]expr.Clause(nil), f.Clauses[:i]...)
		renamed := inner
		for _, icl := range inner.Clauses {
			fresh := xdm.QName{Space: "urn:xqgo:unnest", Local: icl.Var.Local + "_" + fmt.Sprint(len(out.Clauses))}
			renamed = renameFlworVar(renamed, icl.Var, fresh)
		}
		out.Clauses = append(out.Clauses, renamed.Clauses...)
		// inner where must hold per inner tuple: merge into a conditional
		// wrapping of the binding sequence — add as a where conjunct is
		// wrong if outer clauses follow, so guard the new for-binding:
		bindSeq := renamed.Ret
		if renamed.Where != nil {
			bindSeq = &expr.If{
				Base: expr.Base{P: f.Span()},
				Cond: renamed.Where,
				Then: bindSeq,
				Else: &expr.Seq{Base: expr.Base{P: f.Span()}},
			}
		}
		out.Clauses = append(out.Clauses, expr.Clause{
			Kind: expr.ForClause, Var: cl.Var, In: bindSeq,
		})
		out.Clauses = append(out.Clauses, f.Clauses[i+1:]...)
		return &out
	}
	return nil
}

// renameFlworVar renames a variable bound by a FLWOR's own clause.
func renameFlworVar(f *expr.Flwor, from, to xdm.QName) *expr.Flwor {
	out := *f
	out.Clauses = append([]expr.Clause(nil), f.Clauses...)
	seen := false
	for i := range out.Clauses {
		if seen {
			out.Clauses[i].In = replaceVar(out.Clauses[i].In, from,
				&expr.VarRef{Base: expr.Base{P: f.Span()}, Name: to})
		}
		if out.Clauses[i].Var.Equal(from) {
			out.Clauses[i].Var = to
			seen = true
		}
	}
	repl := &expr.VarRef{Base: expr.Base{P: f.Span()}, Name: to}
	if out.Where != nil {
		out.Where = replaceVar(out.Where, from, repl)
	}
	out.Ret = replaceVar(out.Ret, from, repl)
	return &out
}

// ---- FOR minimization ----

// minimizeFor drops a for clause whose variable is never used and whose
// binding sequence is statically a singleton (a literal or a constructor):
// the loop multiplies the result by exactly one.
func minimizeFor(x expr.Expr) expr.Expr {
	f, ok := x.(*expr.Flwor)
	if !ok || len(f.Group) > 0 {
		return nil
	}
	for i, cl := range f.Clauses {
		if cl.Kind != expr.ForClause || !cl.PosVar.IsZero() {
			continue
		}
		if !isStaticSingleton(cl.In) || expr.CanRaiseError(cl.In) { // dropped, it could not raise
			continue
		}
		rest := restOfFlwor(f, i+1)
		if expr.UsesOf(rest, cl.Var).Count > 0 {
			continue
		}
		return dropClause(f, i)
	}
	return nil
}

func isStaticSingleton(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Literal, *expr.ElemConstructor, *expr.TextConstructor,
		*expr.CommentConstructor, *expr.DocConstructor:
		return true
	}
	return false
}

// ---- common sub-expression factorization ----

// factorCSE extracts duplicated pure sub-expressions of a FLWOR return
// clause into a let binding. Purity per the paper: no node construction, no
// context sensitivity; error-capable expressions are allowed because the
// introduced let is evaluated lazily, so an error surfaces exactly when a
// use is evaluated ("guaranteed only if runtime implements consistently
// lazy evaluation" — ours does).
func (o *optimizer) factorCSE(x expr.Expr) expr.Expr {
	f, ok := x.(*expr.Flwor)
	// Two disjoint candidates of six nodes or more, and a node above them.
	if !ok || len(f.Group) > 0 || o.facts.Of(f.Ret).Size < 13 {
		return nil
	}
	// Count the return clause's candidate subtrees by structure (Equal
	// compares structural hashes first): firsts holds each structure's
	// first occurrence, in pre-order.
	var firsts []expr.Expr
	var counts []int
	expr.Walk(f.Ret, func(e expr.Expr) bool {
		if !o.cseCandidate(e) {
			return o.facts.Of(e).TouchesData // no candidate below otherwise
		}
		for i, first := range firsts {
			if o.facts.Equal(first, e) {
				counts[i]++
				return true
			}
		}
		firsts, counts = append(firsts, e), append(counts, 1)
		return true
	})
	// Factor the largest duplicated candidate, the first in pre-order on a
	// tie: binding a call binds the path inside it too. A candidate that
	// reads a variable bound inside the return clause cannot move out of it.
	var rep expr.Expr
	var inner map[string]bool
	for i, e := range firsts {
		if counts[i] < 2 || rep != nil && o.facts.Of(e).Size <= o.facts.Of(rep).Size {
			continue
		}
		if inner == nil {
			inner = expr.BoundIn(f.Ret)
		}
		local := false
		for v := range expr.FreeVars(e) {
			local = local || inner[v]
		}
		if !local {
			rep = e
		}
	}
	if rep == nil {
		return nil
	}
	// The expression must be closed over variables bound by this FLWOR
	// only if we insert the let AFTER those clauses; simplest safe
	// placement: last clause position.
	fresh := xdm.QName{Space: "urn:xqgo:cse", Local: fmt.Sprintf("cse%d", o.cseN)}
	o.cseN++
	out := *f
	out.Clauses = append(append([]expr.Clause(nil), f.Clauses...), expr.Clause{
		Kind: expr.LetClause, Var: fresh, In: rep,
	})
	ref := &expr.VarRef{Base: expr.Base{P: rep.Span()}, Name: fresh}
	out.Ret = o.replaceSubtree(f.Ret, rep, ref)
	return &out
}

// callCreatesNodes answers the node-creation question for calls using the
// declarative function-property table ("this information is given
// declaratively"): built-ins answer from their properties, anything
// unresolved is conservatively creating.
func callCreatesNodes(c *expr.Call) bool {
	if f, err := functions.Lookup(c.Name.Local, len(c.Args)); err == nil && f != nil {
		return f.Props.CreatesNodes
	}
	return true
}

// cseCandidate: non-trivial, deterministic, node-creation-free,
// context-free, and worth a binding — factoring is only profitable when
// the duplicated work dominates the cost of the introduced variable, so we
// require a reasonably sized expression that actually touches data (a path
// or a function call).
func (o *optimizer) cseCandidate(e expr.Expr) bool {
	// Expressions binding their own variables complicate substitution.
	switch e.(type) {
	case *expr.Flwor, *expr.Quantified, *expr.Typeswitch:
		return false
	}
	f := o.facts.Of(e)
	return f.Size >= 6 && !f.CreatesNodes && !f.UsesContext && f.TouchesData
}

// replaceSubtree replaces every subtree equal to rep with repl.
func (o *optimizer) replaceSubtree(e, rep, repl expr.Expr) expr.Expr {
	size, hash := o.facts.Of(rep).Size, o.facts.Hash(rep)
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if o.facts.Of(x).Size == size && o.facts.Hash(x) == hash && o.facts.Equal(x, rep) {
			return repl
		}
		return nil
	})
}

// ---- backward navigation elimination ----

// elimParent rewrites E/child::T/parent::node() (the "$x/a/.." pattern)
// into E[child::T], removing the backward axis so the pipeline can stream
// ("Replace backwards navigation with forward navigation ... enables
// streaming").
func elimParent(x expr.Expr) expr.Expr {
	outer, ok := x.(*expr.Path)
	if !ok {
		return nil
	}
	parentStep, ok := outer.R.(*expr.Step)
	if !ok || parentStep.Axis != expr.AxisParent || parentStep.Test.Kind != xtypes.TestAnyKind {
		return nil
	}
	inner, ok := outer.L.(*expr.Path)
	if !ok {
		return nil
	}
	childStep, ok := inner.R.(*expr.Step)
	if !ok || childStep.Axis != expr.AxisChild {
		return nil
	}
	// E/child::T/parent::node() == E[child::T] when E yields elements
	// (each result parent is the E node itself; dedup preserved by filter).
	return &expr.Filter{
		Base:  expr.Base{P: x.Span()},
		In:    inner.L,
		Preds: []expr.Expr{childStep},
	}
}

// ---- positional bounds ----

// fnSubsequence names fn:subsequence as the parser does.
var fnSubsequence = xdm.QName{Space: functions.Namespace, Local: "subsequence", Prefix: "fn"}

// boundPositional rewrites a filter whose first predicate bounds the
// position to the window it keeps: subsequence(E, from, len), E[k] for one
// position, E for all of them, () for none. The bound is position() op N
// with op one of = eq < lt <= le > gt >= ge and N a numeric literal, on
// either side; position() = (a to b); or two bounds joined by and. The
// window's pull stops after its last item, where the filter read E to the
// end, so E must not raise an error the filter would have raised there.
func (o *optimizer) boundPositional(x expr.Expr) expr.Expr {
	f, ok := x.(*expr.Filter)
	if !ok {
		return nil
	}
	lo, hi, ok := positionBounds(f.Preds[0])
	if !ok || o.facts.Of(f.In).CanRaiseError {
		return nil
	}
	from, to := functions.Window(lo, hi)
	lit := func(n int64) expr.Expr { return expr.NewLiteral(f.Span(), xdm.NewInteger(n)) }
	call := func(args ...expr.Expr) expr.Expr {
		return &expr.Call{Base: f.Base, Name: fnSubsequence, Args: append([]expr.Expr{f.In}, args...)}
	}
	var kept expr.Expr
	switch {
	case to < from:
		return &expr.Seq{Base: f.Base}
	case from == to:
		return &expr.Filter{Base: f.Base, In: f.In, Preds: append([]expr.Expr{lit(from)}, f.Preds[1:]...)}
	case to < functions.NoEnd:
		kept = call(lit(from), lit(to-from+1))
	case from > 1:
		kept = call(lit(from))
	default:
		kept = f.In
	}
	if len(f.Preds) == 1 {
		return kept
	}
	return &expr.Filter{Base: f.Base, In: kept, Preds: f.Preds[1:]}
}

// positionBounds reads a predicate that keeps the positions p with
// lo ≤ p < hi; ok=false for any other predicate.
func positionBounds(pred expr.Expr) (lo, hi float64, ok bool) {
	if l, isLogic := pred.(*expr.Logic); isLogic {
		lo1, hi1, ok1 := positionBound(l.L)
		lo2, hi2, ok2 := positionBound(l.R)
		return max(lo1, lo2), min(hi1, hi2), l.And && ok1 && ok2
	}
	return positionBound(pred)
}

// positionBound reads one comparison of fn:position() with a bound.
func positionBound(e expr.Expr) (lo, hi float64, ok bool) {
	c, isCmp := e.(*expr.Compare)
	if !isCmp {
		return 0, 0, false
	}
	op, other := c.Op, c.R
	switch {
	case isPosition(c.R):
		other, op = c.L, mirrored[op]
	case !isPosition(c.L):
		return 0, 0, false
	}
	if r, isRange := other.(*expr.Range); isRange {
		a, okA := r.Lo.(*expr.Literal)
		b, okB := r.Hi.(*expr.Literal)
		if c.Kind != expr.CompGeneral || op != xdm.OpEq || !okA || !okB || a.Val.T != xdm.TInteger || b.Val.T != xdm.TInteger {
			return 0, 0, false
		}
		return a.Val.AsFloat(), b.Val.AsFloat() + 1, true
	}
	n, ok := boundOf(other)
	inf := math.Inf(1)
	switch {
	case !ok:
		return 0, 0, false
	case op == xdm.OpEq:
		return n, math.Floor(n) + 1, true
	case op == xdm.OpLt:
		return -inf, n, true
	case op == xdm.OpLe:
		return -inf, math.Floor(n) + 1, true
	case op == xdm.OpGt:
		return math.Floor(n) + 1, inf, true
	case op == xdm.OpGe:
		return n, inf, true
	}
	return 0, 0, false // ne
}

// mirrored is the operator of a comparison with its operands swapped.
var mirrored = [...]xdm.CompOp{xdm.OpEq: xdm.OpEq, xdm.OpNe: xdm.OpNe,
	xdm.OpLt: xdm.OpGt, xdm.OpLe: xdm.OpGe, xdm.OpGt: xdm.OpLt, xdm.OpGe: xdm.OpLe}

// isPosition reports whether e is a call of fn:position().
func isPosition(e expr.Expr) bool {
	c, ok := e.(*expr.Call)
	return ok && expr.IsBuiltin(c, "position", 0)
}

// boundOf reads a numeric literal as a double. A decimal whose double is
// an integer it does not equal is refused: the bound would move across
// that integer.
func boundOf(e expr.Expr) (float64, bool) {
	l, ok := e.(*expr.Literal)
	if !ok || !l.Val.T.IsNumeric() {
		return 0, false
	}
	n := l.Val.AsFloat()
	if l.Val.T == xdm.TDecimal && n == math.Trunc(n) && math.Abs(n) < 1<<53 {
		eq, err := xdm.ValueCompare(xdm.OpEq, l.Val, xdm.NewInteger(int64(n)))
		return n, eq && err == nil
	}
	return n, true
}

// ---- type-based rewritings ----

// typeRewrite applies the paper's "Type-based rewritings": a treat-as whose
// operand's inferred static type is already a subtype of the target is a
// no-op and is removed; an instance-of that is statically guaranteed folds
// to true(). Inference is conservative, so false negatives just leave the
// runtime check in place.
func typeRewrite(x expr.Expr) expr.Expr {
	switch n := x.(type) {
	case *expr.Treat:
		if expr.Infer(n.X, nil).SubtypeOf(n.T) {
			return n.X
		}
	case *expr.InstanceOf:
		// Folding to true drops the operand: only when it cannot raise the
		// error the unoptimized plan would, a missing focus among them.
		if f := new(expr.Analysis).Of(n.X); expr.Infer(n.X, nil).SubtypeOf(n.T) && !f.CanRaiseError && !f.UsesContext {
			return expr.NewLiteral(n.Span(), xdm.True)
		}
	}
	return nil
}
