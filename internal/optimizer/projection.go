package optimizer

import (
	"strconv"

	"xqgo/internal/expr"
	"xqgo/internal/projection"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// ExtractPaths derives a query's static projection (Marian & Siméon): the
// set of root-anchored paths whose nodes the query can possibly touch,
// each marked with whether the node itself suffices or its whole subtree is
// needed. The parser uses the result to skip unreachable subtrees during
// ingestion. The analysis is conservative: anything it cannot bound
// statically — reverse or sibling axes, recursive user functions, unknown
// expression forms — degrades to "keep everything", never to a wrong skip.
//
// The context item is assumed to be (the root of) the projected document;
// external variables are assumed not to hold nodes of it. Both assumptions
// hold by construction for streamed ingestion: the document is created
// during execution, after all bindings, and is handed to the query as the
// context item (or via fn:doc of its URI).
func ExtractPaths(q *expr.Query) *projection.Paths {
	x := &extractor{
		out:    projection.New(),
		funcs:  map[string]*expr.FuncDecl{},
		active: map[string]bool{},
	}
	for i := range q.Funcs {
		f := &q.Funcs[i]
		x.funcs[funcSig(f.Name, len(f.Params))] = f
	}
	root := rootVal()
	globals := &env{vars: map[string]aval{}, focus: &root}
	for i := range q.Vars {
		vd := &q.Vars[i]
		v := aval{known: true} // external: cannot reference the projected doc
		if vd.Init != nil {
			v = x.analyze(vd.Init, globals)
		}
		globals.vars[vd.Name.String()] = v
	}
	x.globals = globals
	v := x.analyze(q.Body, globals)
	x.consume(v, useContent)
	if x.out.KeepAll {
		return projection.KeepEverything()
	}
	return x.out
}

// use describes how a consumer observes a value's nodes.
type use uint8

const (
	// useNone: existence, count, identity, order or name only — the node
	// itself (with attributes) is enough.
	useNone use = iota
	// useContent: atomization, string value, copy or serialization — the
	// node's whole subtree is needed.
	useContent
)

// apath is one abstract root-anchored location.
type apath struct {
	steps []projection.Step
	// pendingDesc: the value also includes every descendant (a trailing
	// descendant-or-self::node()); a following child step matches at any
	// depth.
	pendingDesc bool
}

// aval abstracts the node provenance of an expression's value. known=false
// means nodes of unknown origin may be present: navigating or atomizing
// them is unbounded.
type aval struct {
	known bool
	paths []apath
}

func rootVal() aval   { return aval{known: true, paths: []apath{{}}} }
func atomicVal() aval { return aval{known: true} }

func union(a, b aval) aval {
	out := aval{known: a.known && b.known}
	out.paths = append(out.paths, a.paths...)
	out.paths = append(out.paths, b.paths...)
	return out
}

type env struct {
	vars  map[string]aval
	focus *aval // nil inside function bodies (no focus)
}

func (e *env) child() *env {
	vars := make(map[string]aval, len(e.vars)+2)
	for k, v := range e.vars {
		vars[k] = v
	}
	return &env{vars: vars, focus: e.focus}
}

func (e *env) withFocus(f aval) *env { return &env{vars: e.vars, focus: &f} }

type extractor struct {
	out     *projection.Paths
	funcs   map[string]*expr.FuncDecl
	globals *env
	active  map[string]bool // user functions on the analysis stack
}

func funcSig(n xdm.QName, arity int) string { return n.String() + "/" + strconv.Itoa(arity) }

func (x *extractor) keepAll() { x.out.KeepAll = true }

// consume records that v's nodes are observed with usage u.
func (x *extractor) consume(v aval, u use) {
	if !v.known && u == useContent {
		x.keepAll()
	}
	for _, p := range v.paths {
		if p.pendingDesc {
			// Descendants at every depth are in the value: the whole
			// subtree is live regardless of usage.
			x.out.Add(projection.Path{Steps: p.steps, KeepSubtree: true})
			continue
		}
		x.out.Add(projection.Path{Steps: p.steps, KeepSubtree: u == useContent})
	}
}

// eat analyzes and immediately consumes a list of expressions.
func (x *extractor) eat(env *env, u use, es ...expr.Expr) {
	for _, e := range es {
		if e != nil {
			x.consume(x.analyze(e, env), u)
		}
	}
}

// analyze computes the abstract value of e, recording (via consume/keepAll)
// every demand its evaluation places on the projected document. The
// returned value is NOT yet consumed — the consumer decides its usage.
func (x *extractor) analyze(e expr.Expr, env *env) aval {
	switch t := e.(type) {
	case *expr.Literal:
		return atomicVal()

	case *expr.VarRef:
		if v, ok := env.vars[t.Name.String()]; ok {
			return v
		}
		return aval{} // unresolved: unknown provenance

	case *expr.ContextItem:
		if env.focus == nil {
			x.keepAll()
			return aval{}
		}
		return *env.focus

	case *expr.Root:
		return rootVal()

	case *expr.Seq:
		out := atomicVal()
		for _, c := range t.Items {
			out = union(out, x.analyze(c, env))
		}
		return out

	case *expr.Range:
		x.eat(env, useContent, t.Lo, t.Hi)
		return atomicVal()

	case *expr.Arith:
		x.eat(env, useContent, t.L, t.R)
		return atomicVal()

	case *expr.Neg:
		x.eat(env, useContent, t.X)
		return atomicVal()

	case *expr.Compare:
		x.eat(env, useContent, t.L, t.R)
		return atomicVal()

	case *expr.NodeCompare:
		x.eat(env, useNone, t.L, t.R) // identity/order only
		return atomicVal()

	case *expr.Logic:
		x.eat(env, useNone, t.L, t.R) // EBV only
		return atomicVal()

	case *expr.Step:
		if env.focus == nil {
			x.keepAll()
			return aval{}
		}
		return x.applyStep(*env.focus, t.Axis, t.Test)

	case *expr.Path:
		lv := x.analyze(t.L, env)
		return x.analyze(t.R, env.withFocus(lv))

	case *expr.Filter:
		in := x.analyze(t.In, env)
		penv := env.withFocus(in)
		for _, p := range t.Preds {
			x.eat(penv, useNone, p)
		}
		return in

	case *expr.Flwor:
		fe := env.child()
		for _, cl := range t.Clauses {
			v := x.analyze(cl.In, fe)
			if cl.Kind == expr.ForClause {
				// Iteration observes the binding sequence's cardinality
				// even when the variable is unused.
				x.consume(v, useNone)
			}
			fe.vars[cl.Var.String()] = v
			if !cl.PosVar.IsZero() {
				fe.vars[cl.PosVar.String()] = atomicVal()
			}
		}
		if t.Where != nil {
			x.eat(fe, useNone, t.Where)
		}
		for _, g := range t.Group {
			x.eat(fe, useContent, g.Key)
			fe.vars[g.Var.String()] = atomicVal()
		}
		for _, o := range t.Order {
			x.eat(fe, useContent, o.Key)
		}
		return x.analyze(t.Ret, fe)

	case *expr.Quantified:
		qe := env.child()
		for _, b := range t.Binds {
			v := x.analyze(b.In, qe)
			x.consume(v, useNone) // iterated: cardinality observable
			qe.vars[b.Var.String()] = v
		}
		x.eat(qe, useNone, t.Satisfies)
		return atomicVal()

	case *expr.If:
		x.eat(env, useNone, t.Cond)
		return union(x.analyze(t.Then, env), x.analyze(t.Else, env))

	case *expr.TryCatch:
		return union(x.analyze(t.Try, env), x.analyze(t.Catch, env))

	case *expr.Typeswitch:
		iv := x.analyze(t.Input, env)
		x.consume(iv, useNone) // type matching inspects kind and name only
		out := atomicVal()
		for _, c := range t.Cases {
			ce := env
			if !c.Var.IsZero() {
				ce = env.child()
				ce.vars[c.Var.String()] = iv
			}
			out = union(out, x.analyze(c.Body, ce))
		}
		de := env
		if !t.DefaultVar.IsZero() {
			de = env.child()
			de.vars[t.DefaultVar.String()] = iv
		}
		return union(out, x.analyze(t.Default, de))

	case *expr.InstanceOf:
		x.eat(env, useNone, t.X)
		return atomicVal()

	case *expr.Cast:
		x.eat(env, useContent, t.X) // atomizes
		return atomicVal()

	case *expr.Treat:
		v := x.analyze(t.X, env)
		x.consume(v, useNone) // dynamic type check
		return v

	case *expr.SetOp:
		return union(x.analyze(t.L, env), x.analyze(t.R, env))

	case *expr.Call:
		return x.analyzeCall(t, env)

	case *expr.ElemConstructor:
		if t.NameExpr != nil {
			x.eat(env, useContent, t.NameExpr)
		}
		for _, a := range t.Attrs {
			x.eat(env, useContent, a.Parts...)
		}
		x.eat(env, useContent, t.Content...)
		return atomicVal() // fresh tree: navigation stays off the input

	case *expr.AttrConstructor:
		if t.NameExpr != nil {
			x.eat(env, useContent, t.NameExpr)
		}
		x.eat(env, useContent, t.Value...)
		return atomicVal()

	case *expr.TextConstructor:
		x.eat(env, useContent, t.X)
		return atomicVal()

	case *expr.CommentConstructor:
		x.eat(env, useContent, t.X)
		return atomicVal()

	case *expr.PIConstructor:
		x.eat(env, useContent, t.X)
		return atomicVal()

	case *expr.DocConstructor:
		x.eat(env, useContent, t.X)
		return atomicVal()

	default:
		// Unknown expression form: no static bound.
		x.keepAll()
		return aval{}
	}
}

// applyStep extends a focus value by one axis step.
func (x *extractor) applyStep(v aval, axis expr.Axis, test xtypes.NodeTest) aval {
	if !v.known {
		x.keepAll()
		return aval{}
	}
	switch axis {
	case expr.AxisSelf:
		return v // a (possibly narrowing) filter on the same nodes

	case expr.AxisChild:
		if s, ok := StepFromTest(test, false); ok {
			return x.extend(v, s)
		}
		if test.Kind == xtypes.TestDoc {
			return atomicVal() // children are never document nodes
		}
		// text()/comment()/pi()/node(): character-level content of the
		// focus is selected — keep its whole subtree.
		x.consumeSubtrees(v)
		return atomicVal()

	case expr.AxisAttribute:
		// Attributes ride on materialized elements: materialize the owners.
		x.consume(v, useNone)
		return atomicVal()

	case expr.AxisDescendant:
		if s, ok := StepFromTest(test, true); ok {
			return x.extend(v, s)
		}
		x.consumeSubtrees(v)
		return atomicVal()

	case expr.AxisDescendantOrSelf:
		if test.Kind == xtypes.TestAnyKind {
			// The classical // encoding: defer the depth wildcard onto the
			// next step.
			out := aval{known: true, paths: make([]apath, len(v.paths))}
			for i, p := range v.paths {
				out.paths[i] = apath{steps: p.steps, pendingDesc: true}
			}
			return out
		}
		if s, ok := StepFromTest(test, true); ok {
			// self (name-filtered, over-approximated) plus descendants.
			return union(v, x.extend(v, s))
		}
		x.consumeSubtrees(v)
		return atomicVal()

	default:
		// Reverse and sibling axes escape the forward projection frame.
		x.keepAll()
		return aval{}
	}
}

// extend appends a step to every path of v.
func (x *extractor) extend(v aval, s projection.Step) aval {
	out := aval{known: true, paths: make([]apath, len(v.paths))}
	for i, p := range v.paths {
		st := s
		if p.pendingDesc {
			st.AnyDepth = true
		}
		out.paths[i] = apath{steps: appendStep(p.steps, st)}
	}
	return out
}

// consumeSubtrees marks every path of v keep-subtree.
func (x *extractor) consumeSubtrees(v aval) { x.consume(v, useContent) }

func appendStep(steps []projection.Step, s projection.Step) []projection.Step {
	out := make([]projection.Step, len(steps)+1)
	copy(out, steps)
	out[len(steps)] = s
	return out
}

// StepFromTest converts an element name test into a projection step;
// ok=false for tests that select non-element kinds, which no automaton over
// element names can match. The streamability analysis builds its spine with
// it too.
func StepFromTest(t xtypes.NodeTest, anyDepth bool) (projection.Step, bool) {
	switch t.Kind {
	case xtypes.TestName, xtypes.TestElement:
	default:
		return projection.Step{}, false
	}
	s := projection.Step{AnyDepth: anyDepth}
	switch {
	case t.AnyName || (t.Kind == xtypes.TestElement && t.Name.IsZero()):
		s.Any = true
	case t.WildSpace:
		s.WildSpace, s.Local = true, t.Name.Local
	case t.WildLocal:
		s.WildLocal, s.Space = true, t.Name.Space
	default:
		s.Space, s.Local = t.Name.Space, t.Name.Local
	}
	return s, true
}

// ---- function calls ----

const (
	fnSpace  = "http://www.w3.org/2005/xpath-functions"
	xsSpace  = "http://www.w3.org/2001/XMLSchema"
	xdtSpace = "http://www.w3.org/2005/xpath-datatypes"
)

// passthroughArgs: built-ins whose result may contain nodes of the listed
// argument positions, forwarded untouched; other arguments are atomized.
var passthroughArgs = map[string][]int{
	"subsequence":    {0},
	"reverse":        {0},
	"remove":         {0},
	"insert-before":  {0, 2},
	"unordered":      {0},
	"trace":          {0},
	"distinct-nodes": {0},
}

// cardinalityChecked: passthroughs that additionally observe the argument's
// cardinality (they can raise on it even when the result is discarded).
var cardinalityChecked = map[string][]int{
	"exactly-one": {0},
	"zero-or-one": {0},
	"one-or-more": {0},
}

// structuralFns observe only existence, count, identity or name of their
// node arguments.
var structuralFns = map[string]bool{
	"count": true, "empty": true, "exists": true, "not": true,
	"boolean": true, "name": true, "local-name": true, "node-name": true,
	"namespace-uri": true, "base-uri": true, "document-uri": true,
	"position": true, "last": true, "true": true, "false": true,
}

func (x *extractor) analyzeCall(c *expr.Call, env *env) aval {
	// User-declared function: analyze its body with the call's abstract
	// arguments (globals in scope, no focus).
	if f, ok := x.funcs[funcSig(c.Name, len(c.Args))]; ok {
		sig := funcSig(c.Name, len(c.Args))
		args := make([]aval, len(c.Args))
		for i, a := range c.Args {
			args[i] = x.analyze(a, env)
		}
		if x.active[sig] {
			// Recursion: no finite path bound.
			x.keepAll()
			return aval{}
		}
		x.active[sig] = true
		fe := funcEnv(x.globals)
		for i, p := range f.Params {
			fe.vars[p.Name.String()] = args[i]
		}
		rv := x.analyze(f.Body, fe)
		delete(x.active, sig)
		return rv
	}

	// Constructor functions xs:T(v): casts, which atomize.
	if c.Name.Space == xsSpace || c.Name.Space == xdtSpace {
		x.eat(env, useContent, c.Args...)
		return atomicVal()
	}
	if c.Name.Space != fnSpace && c.Name.Space != "" {
		x.keepAll()
		return aval{}
	}

	local := c.Name.Local
	switch {
	case local == "doc" || local == "document":
		x.eat(env, useContent, c.Args...)
		return rootVal()

	case local == "collection":
		// Collections resolve to eagerly-materialized catalog documents —
		// never the projected one.
		x.eat(env, useContent, c.Args...)
		return atomicVal()

	case local == "root":
		x.eat(env, useNone, c.Args...)
		return rootVal()

	case structuralFns[local]:
		x.eat(env, useNone, c.Args...)
		return atomicVal()

	default:
		if idxs, ok := passthroughArgs[local]; ok {
			return x.passthrough(c, env, idxs, false)
		}
		if idxs, ok := cardinalityChecked[local]; ok {
			return x.passthrough(c, env, idxs, true)
		}
		// Everything else — string/number/aggregation/comparison functions
		// and anything unknown — atomizes its arguments.
		x.eat(env, useContent, c.Args...)
		return atomicVal()
	}
}

func (x *extractor) passthrough(c *expr.Call, env *env, nodeArgs []int, checked bool) aval {
	isNodeArg := func(i int) bool {
		for _, j := range nodeArgs {
			if i == j {
				return true
			}
		}
		return false
	}
	out := atomicVal()
	for i, a := range c.Args {
		v := x.analyze(a, env)
		if isNodeArg(i) {
			if checked {
				x.consume(v, useNone)
			}
			out = union(out, v)
		} else {
			x.consume(v, useContent)
		}
	}
	return out
}

// funcEnv builds a function-body environment: globals only, focus
// undefined.
func funcEnv(globals *env) *env {
	vars := make(map[string]aval, len(globals.vars)+4)
	for k, v := range globals.vars {
		vars[k] = v
	}
	return &env{vars: vars, focus: nil}
}
