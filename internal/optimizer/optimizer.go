// Package optimizer implements the rewriting optimizer: the paper's
// "library of rewriting rules (~100), and a hard-coded strategy". Every rule
// obeys the paper's contract for expr1 -> expr2: the rewritten expression
// subsumes the original's type and free variables.
//
// The strategy repeats a bottom-up sweep until one fires no rule. A sweep
// reports a fire by returning a new node, skips the subtrees earlier sweeps
// met unchanged, and tries at each node only the rules listed for its kind.
// Rules read per-node analyses computed once per run (expr.Analysis), and
// the trace renders a bounded summary only for the events it keeps.
//
// Rules are individually switchable so the rewrite-ablation experiment
// (E10) can measure each one's contribution.
package optimizer

import (
	"fmt"
	"reflect"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// Rule names, usable with Options.Disable.
const (
	RuleConstFold   = "const-fold"       // constant folding incl. literal conditionals
	RuleLetFold     = "let-fold"         // LET clause folding / unused-let elimination
	RuleFnInline    = "fn-inline"        // non-recursive user function inlining
	RuleFlworUnnest = "flwor-unnest"     // FOR-clause FLWOR unnesting
	RuleForMin      = "for-min"          // FOR clause minimization (unused singleton loops)
	RuleCSE         = "cse"              // common sub-expression factorization
	RulePathOrder   = "path-order"       // doc-order sort / duplicate-elim elision (E8)
	RuleParentElim  = "parent-elim"      // backward-navigation elimination ($x/a/..)
	RuleTypeRewrite = "type-rewrite"     // type-based rewritings (treat/instance-of elimination)
	RuleNoNodeIDs   = "no-node-ids"      // on-demand node identifiers for constructors (E7)
	RulePosBound    = "positional-bound" // E[position() le N] to subsequence(E, 1, N)
)

// localRules is the rule table of the bottom-up sweep: at each node pass
// tries, in this order, the rules whose kinds column holds the node's kind,
// and takes the first that rewrites it. A rule returns nil when it does not
// apply, which it never does on a kind outside its column.
var localRules = []localRule{
	{RuleConstFold, []expr.Expr{&expr.Arith{}, &expr.Neg{}, &expr.Compare{}, &expr.Logic{},
		&expr.If{}, &expr.Cast{}, &expr.Call{}}, stateless(constFold)},
	{RuleFnInline, []expr.Expr{&expr.Call{}}, (*optimizer).inlineCall},
	{RuleFlworUnnest, []expr.Expr{&expr.Flwor{}}, stateless(unnestFlwor)},
	{RuleForMin, []expr.Expr{&expr.Flwor{}}, stateless(minimizeFor)},
	{RuleLetFold, []expr.Expr{&expr.Flwor{}}, (*optimizer).foldLets},
	{RuleCSE, []expr.Expr{&expr.Flwor{}}, (*optimizer).factorCSE},
	{RuleParentElim, []expr.Expr{&expr.Path{}}, stateless(elimParent)},
	{RuleTypeRewrite, []expr.Expr{&expr.Treat{}, &expr.InstanceOf{}}, stateless(typeRewrite)},
	{RulePosBound, []expr.Expr{&expr.Filter{}}, (*optimizer).boundPositional},
}

type localRule struct {
	name  string
	kinds []expr.Expr // the node kinds the rule can fire on
	apply func(*optimizer, expr.Expr) expr.Expr
}

// stateless adapts a rule that needs nothing from the run to the table.
func stateless(rule func(expr.Expr) expr.Expr) func(*optimizer, expr.Expr) expr.Expr {
	return func(_ *optimizer, x expr.Expr) expr.Expr { return rule(x) }
}

// AllRules lists every rule in application order: the sweep's table, then
// the two whole-tree annotation passes that run once after the fixpoint.
// rulesByKind is the table indexed by its kinds column, in table order.
var AllRules, rulesByKind = func() ([]string, map[reflect.Type][]localRule) {
	var names []string
	byKind := map[reflect.Type][]localRule{}
	for _, r := range localRules {
		names = append(names, r.name)
		for _, k := range r.kinds {
			byKind[reflect.TypeOf(k)] = append(byKind[reflect.TypeOf(k)], r)
		}
	}
	return append(names, RulePathOrder, RuleNoNodeIDs), byKind
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

type optimizer struct {
	opts  Options
	query *expr.Query
	// function bodies by key for inlining; recursive set excluded
	inlinable map[string]*expr.FuncDecl
	cseN      int
	facts     *expr.Analysis // per-node analyses for the whole run
	// settled[e] is the optimizeExpr run whose pass met no rule firing in e.
	settled map[expr.Expr]int
	run     int
}

// Optimize rewrites a query in place (the Body and function bodies are
// replaced by optimized trees) and returns it.
func Optimize(q *expr.Query, opts Options) *expr.Query {
	o := &optimizer{opts: opts, query: q, facts: expr.NewAnalysis(callCreatesNodes),
		settled: map[expr.Expr]int{}}
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

// optimizeExpr sweeps e until a sweep fires no rule, or maxPasses times.
func (o *optimizer) optimizeExpr(e expr.Expr) expr.Expr {
	o.run++
	for pass := 0; pass < maxPasses; pass++ {
		r := o.pass(e)
		if r == e {
			break
		}
		e = r
	}
	return e
}

// pass applies one bottom-up sweep of the local rules. It reports whether
// any fired by returning a new node: a sweep that fires none returns e. It
// skips the subtrees settled earlier in this run: a rule is a function of
// the subtree it is given alone (inlinable is fixed for the run, cseN is
// read only when a rule fires), so it would not fire there now.
func (o *optimizer) pass(e expr.Expr) expr.Expr {
	switch e.(type) {
	case nil, *expr.Literal, *expr.VarRef, *expr.Step, *expr.ContextItem, *expr.Root:
		return e // leaves no rule fires on
	}
	if o.settled[e] == o.run {
		return e
	}
	x := expr.MapChildren(e, o.pass)
	for _, rule := range rulesByKind[reflect.TypeOf(x)] {
		if !o.on(rule.name) {
			continue
		}
		if r := rule.apply(o, x); r != nil {
			o.opts.Trace.record(rule.name, x, r)
			return r
		}
	}
	if x == e {
		o.settled[e] = o.run
	}
	return x
}

// findInlinable computes the non-recursive user functions small enough to
// inline.
func (o *optimizer) findInlinable() {
	if len(o.query.Funcs) == 0 {
		return
	}
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
		if f := o.facts.Of(fd.Body); f.Size > 60 || f.UsesContext {
			// Too large to inline profitably, or reads the focus: undefined
			// in a function body (err:XPDY0002), the caller's once inlined.
			continue
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
	if !ok || len(o.inlinable) == 0 {
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
	return expr.MapChildren(e, func(c expr.Expr) expr.Expr { return replaceVar(c, name, repl) })
}
