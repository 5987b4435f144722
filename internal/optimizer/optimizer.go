// Package optimizer implements the rewriting optimizer: a library of
// equivalence-preserving rules applied under a simple fixpoint strategy —
// the paper's "library of rewriting rules (~100), and a hard-coded
// strategy". Every rule obeys the paper's contract for expr1 -> expr2:
// the rewritten expression subsumes the original's type and free variables.
//
// Rules are individually switchable so the rewrite-ablation experiment
// (E10) can measure each one's contribution.
package optimizer

import (
	"fmt"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// Rule names, usable with Options.Disable.
const (
	RuleConstFold   = "const-fold"   // constant folding incl. literal conditionals
	RuleLetFold     = "let-fold"     // LET clause folding / unused-let elimination
	RuleFnInline    = "fn-inline"    // non-recursive user function inlining
	RuleFlworUnnest = "flwor-unnest" // FOR-clause FLWOR unnesting
	RuleForMin      = "for-min"      // FOR clause minimization (unused singleton loops)
	RuleCSE         = "cse"          // common sub-expression factorization
	RulePathOrder   = "path-order"   // doc-order sort / duplicate-elim elision (E8)
	RuleParentElim  = "parent-elim"  // backward-navigation elimination ($x/a/..)
	RuleTypeRewrite = "type-rewrite" // type-based rewritings (treat/instance-of elimination)
	RuleNoNodeIDs   = "no-node-ids"  // on-demand node identifiers for constructors (E7)
)

// localRules is the rule table of the bottom-up sweep: at each node pass
// tries them in this order and takes the first that rewrites it. A rule
// returns nil when it does not apply.
var localRules = []struct {
	name  string
	apply func(*optimizer, expr.Expr) expr.Expr
}{
	{RuleConstFold, stateless(constFold)},
	{RuleFnInline, (*optimizer).inlineCall},
	{RuleFlworUnnest, stateless(unnestFlwor)},
	{RuleForMin, stateless(minimizeFor)},
	{RuleLetFold, (*optimizer).foldLets},
	{RuleCSE, (*optimizer).factorCSE},
	{RuleParentElim, stateless(elimParent)},
	{RuleTypeRewrite, stateless(typeRewrite)},
}

// stateless adapts a rule that needs nothing from the run to the table.
func stateless(rule func(expr.Expr) expr.Expr) func(*optimizer, expr.Expr) expr.Expr {
	return func(_ *optimizer, x expr.Expr) expr.Expr { return rule(x) }
}

// AllRules lists every rule in application order: the sweep's table, then
// the two whole-tree annotation passes that run once after the fixpoint.
var AllRules = func() []string {
	var names []string
	for _, r := range localRules {
		names = append(names, r.name)
	}
	return append(names, RulePathOrder, RuleNoNodeIDs)
}()

// maxPasses bounds the fixpoint iteration.
const maxPasses = 4

// Options configure an optimization run.
type Options struct {
	// Disabled rules (by name). Nil enables everything.
	Disabled map[string]bool
	// Trace, when non-nil, records every rule application (fire counts and
	// bounded before/after summaries) for explain output.
	Trace *Trace
}

// Disable returns Options with the given rules off.
func Disable(rules ...string) Options {
	m := make(map[string]bool, len(rules))
	for _, r := range rules {
		m[r] = true
	}
	return Options{Disabled: m}
}

// Only returns Options with only the given rules on.
func Only(rules ...string) Options {
	on := make(map[string]bool, len(rules))
	for _, r := range rules {
		on[r] = true
	}
	m := map[string]bool{}
	for _, r := range AllRules {
		if !on[r] {
			m[r] = true
		}
	}
	return Options{Disabled: m}
}

type optimizer struct {
	opts  Options
	query *expr.Query
	// function bodies by key for inlining; recursive set excluded
	inlinable map[string]*expr.FuncDecl
	cseN      int
}

// Optimize rewrites a query in place (the Body and function bodies are
// replaced by optimized trees) and returns it.
func Optimize(q *expr.Query, opts Options) *expr.Query {
	o := &optimizer{opts: opts, query: q}
	o.findInlinable()

	for i := range q.Funcs {
		q.Funcs[i].Body = o.optimizeExpr(q.Funcs[i].Body)
	}
	for i := range q.Vars {
		if q.Vars[i].Init != nil {
			q.Vars[i].Init = o.optimizeExpr(q.Vars[i].Init)
		}
	}
	q.Body = o.optimizeExpr(q.Body)

	if o.on(RulePathOrder) {
		q.Body = o.annotatePathOrder(q.Body, nil)
		for i := range q.Funcs {
			q.Funcs[i].Body = o.annotatePathOrder(q.Funcs[i].Body, nil)
		}
	}
	if o.on(RuleNoNodeIDs) {
		q.Body = o.markOutputConstructors(q.Body)
	}
	return q
}

func (o *optimizer) on(rule string) bool { return !o.opts.Disabled[rule] }

func (o *optimizer) optimizeExpr(e expr.Expr) expr.Expr {
	for pass := 0; pass < maxPasses; pass++ {
		before := expr.String(e)
		e = o.pass(e)
		if expr.String(e) == before {
			break
		}
	}
	return e
}

// pass applies one bottom-up sweep of the local rules.
func (o *optimizer) pass(e expr.Expr) expr.Expr {
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		for _, rule := range localRules {
			if !o.on(rule.name) {
				continue
			}
			if r := rule.apply(o, x); r != nil {
				o.opts.Trace.record(rule.name, x, r)
				return r
			}
		}
		return nil
	})
}

// findInlinable computes the non-recursive user functions small enough to
// inline.
func (o *optimizer) findInlinable() {
	o.inlinable = map[string]*expr.FuncDecl{}
	// Build call graph and find functions that (transitively) reach
	// themselves.
	calls := func(body expr.Expr) map[string]bool {
		out := map[string]bool{}
		expr.Walk(body, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Call); ok {
				out[c.Name.Clark()] = true
			}
			return true
		})
		return out
	}
	graph := map[string]map[string]bool{}
	decls := map[string]*expr.FuncDecl{}
	for i := range o.query.Funcs {
		fd := &o.query.Funcs[i]
		key := fd.Name.Clark()
		graph[key] = calls(fd.Body)
		decls[key] = fd
	}
	var reaches func(from, target string, seen map[string]bool) bool
	reaches = func(from, target string, seen map[string]bool) bool {
		if seen[from] {
			return false
		}
		seen[from] = true
		for callee := range graph[from] {
			if callee == target {
				return true
			}
			if _, isUser := graph[callee]; isUser && reaches(callee, target, seen) {
				return true
			}
		}
		return false
	}
	for key, fd := range decls {
		if reaches(key, key, map[string]bool{}) {
			continue // recursive
		}
		if expr.Count(fd.Body) > 60 {
			continue // too large to inline profitably
		}
		o.inlinable[key] = fd
	}
}

// inlineCall rewrites a call to an inlinable function into a let-FLWOR over
// its body ("Function inlining", with the paper's caveats handled: argument
// expressions are bound to lets so they evaluate exactly once; declared
// parameter types keep their checks via treat).
func (o *optimizer) inlineCall(x expr.Expr) expr.Expr {
	call, ok := x.(*expr.Call)
	if !ok {
		return nil
	}
	fd, ok := o.inlinable[call.Name.Clark()]
	if !ok || len(call.Args) != len(fd.Params) {
		return nil
	}
	body := fd.Body
	// Rename parameters to fresh names to avoid capture.
	var clauses []expr.Clause
	for i, prm := range fd.Params {
		fresh := xdm.QName{Space: "urn:xqgo:inline", Local: fmt.Sprintf("%s_%d", prm.Name.Local, o.cseN)}
		o.cseN++
		in := call.Args[i]
		if prm.Type != nil {
			in = &expr.Treat{Base: expr.Base{P: call.Span()}, X: in, T: *prm.Type}
		}
		clauses = append(clauses, expr.Clause{Kind: expr.LetClause, Var: fresh, In: in})
		body = replaceVar(body, prm.Name, &expr.VarRef{Base: expr.Base{P: call.Span()}, Name: fresh})
	}
	if fd.Ret != nil {
		body = &expr.Treat{Base: expr.Base{P: call.Span()}, X: body, T: *fd.Ret}
	}
	if len(clauses) == 0 {
		return body
	}
	return &expr.Flwor{Base: expr.Base{P: call.Span()}, Clauses: clauses, Ret: body}
}

// replaceVar substitutes references to name with repl, respecting shadowing.
func replaceVar(e expr.Expr, name xdm.QName, repl expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.VarRef:
		if n.Name.Equal(name) {
			return repl
		}
		return e
	case *expr.Flwor:
		out := *n
		out.Clauses = append([]expr.Clause(nil), n.Clauses...)
		shadowed := false
		for i := range out.Clauses {
			if !shadowed {
				out.Clauses[i].In = replaceVar(out.Clauses[i].In, name, repl)
			}
			if out.Clauses[i].Var.Equal(name) || out.Clauses[i].PosVar.Equal(name) {
				shadowed = true
			}
		}
		if !shadowed && out.Where != nil {
			out.Where = replaceVar(out.Where, name, repl)
		}
		out.Group = append([]expr.GroupSpec(nil), n.Group...)
		for i := range out.Group {
			if !shadowed {
				out.Group[i].Key = replaceVar(out.Group[i].Key, name, repl)
			}
			if out.Group[i].Var.Equal(name) {
				shadowed = true
			}
		}
		if !shadowed {
			out.Order = append([]expr.OrderSpec(nil), n.Order...)
			for i := range out.Order {
				out.Order[i].Key = replaceVar(out.Order[i].Key, name, repl)
			}
			out.Ret = replaceVar(out.Ret, name, repl)
		}
		return &out
	case *expr.Quantified:
		out := *n
		out.Binds = append([]expr.QBind(nil), n.Binds...)
		shadowed := false
		for i := range out.Binds {
			if !shadowed {
				out.Binds[i].In = replaceVar(out.Binds[i].In, name, repl)
			}
			if out.Binds[i].Var.Equal(name) {
				shadowed = true
			}
		}
		if !shadowed {
			out.Satisfies = replaceVar(out.Satisfies, name, repl)
		}
		return &out
	case *expr.Typeswitch:
		out := *n
		out.Input = replaceVar(n.Input, name, repl)
		out.Cases = append([]expr.TSCase(nil), n.Cases...)
		for i := range out.Cases {
			if !out.Cases[i].Var.Equal(name) {
				out.Cases[i].Body = replaceVar(out.Cases[i].Body, name, repl)
			}
		}
		if !n.DefaultVar.Equal(name) {
			out.Default = replaceVar(n.Default, name, repl)
		}
		return &out
	}
	children := e.Children()
	if len(children) == 0 {
		return e
	}
	newChildren := make([]expr.Expr, len(children))
	changed := false
	for i, c := range children {
		newChildren[i] = replaceVar(c, name, repl)
		if newChildren[i] != c {
			changed = true
		}
	}
	if !changed {
		return e
	}
	return e.WithChildren(newChildren)
}
