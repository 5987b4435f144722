package runtime

import (
	"fmt"

	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/optimizer"
	"xqgo/internal/projection"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Options select the engine variant.
type Options struct {
	// Eager switches to the materializing baseline engine: every
	// sub-expression is fully evaluated before its consumer runs. This is
	// the comparator for the streaming-vs-materialized experiments.
	Eager bool
	// Strategy is the join-strategy policy for join-eligible path chains
	// (//a//b …): StrategyAuto (the resolved default) picks per branch and
	// per document with the cost model in internal/optimizer; the Force*
	// values pin one execution strategy. StrategyDefault resolves to Auto.
	Strategy optimizer.Strategy
	// MemoizeFunctions caches calls to pure user functions per execution
	// (the paper's intra-query memoization).
	MemoizeFunctions bool
	// Projection is the query's static path set (optimizer.ExtractPaths):
	// lazily ingested documents consult it to skip unreachable subtrees.
	// Nil keeps everything.
	Projection *projection.Paths
}

// seqFn is a compiled expression: evaluate against a frame, get an iterator.
type seqFn func(fr *Frame) Iter

// Prepared is a compiled query ready for execution.
type Prepared struct {
	opts    Options
	body    seqFn
	globals []globalDef
	query   *expr.Query
	ops     []OpInfo    // tagged operators, in compile order
	opExpr  []expr.Expr // source expression per tagged operator (plan tree)
	fb      *feedback   // observed output cardinalities, keyed by operator id
}

type globalDef struct {
	id       int
	name     xdm.QName
	typ      *xtypes.SequenceType
	init     seqFn // nil for external
	external bool
}

type userFunc struct {
	decl     expr.FuncDecl
	paramIDs []int
	body     seqFn // set after compilation (recursion-safe indirection)
}

// compiler compiles an expression tree.
type compiler struct {
	opts   Options
	scopes []map[string]int
	nextID int
	funcs  map[string]*userFunc // key: clark name + "/" + arity
	ops    []OpInfo             // operators tagged so far (profiling ids)
	opExpr []expr.Expr          // source expression per tagged operator
	fb     *feedback            // shared with the Prepared; sized after compile
}

// Compile compiles a parsed query for the given engine options.
func Compile(q *expr.Query, opts Options) (*Prepared, error) {
	if opts.Strategy == optimizer.StrategyDefault {
		opts.Strategy = optimizer.StrategyAuto
	}
	c := &compiler{opts: opts, funcs: map[string]*userFunc{}, fb: &feedback{}}
	c.pushScope()

	// Declare functions first (mutual recursion).
	for i := range q.Funcs {
		fd := &q.Funcs[i]
		key := funcKey(fd.Name, len(fd.Params))
		if _, dup := c.funcs[key]; dup {
			return nil, fmt.Errorf("duplicate function %s/%d", fd.Name, len(fd.Params))
		}
		c.funcs[key] = &userFunc{decl: *fd}
	}

	// Global variables, in declaration order; later globals see earlier ones.
	p := &Prepared{opts: opts, query: q}
	for i := range q.Vars {
		vd := &q.Vars[i]
		var initFn seqFn
		if !vd.External {
			fn, err := c.compile(vd.Init)
			if err != nil {
				return nil, err
			}
			initFn = fn
		}
		id := c.declare(vd.Name)
		p.globals = append(p.globals, globalDef{
			id: id, name: vd.Name, typ: vd.Type, init: initFn, external: vd.External,
		})
	}

	// Function bodies (they see globals declared before them — standard
	// XQuery allows any order; we compile bodies after all declarations).
	for _, uf := range c.funcs {
		c.pushScope()
		for _, prm := range uf.decl.Params {
			uf.paramIDs = append(uf.paramIDs, c.declare(prm.Name))
		}
		body, err := c.compile(uf.decl.Body)
		if err != nil {
			return nil, err
		}
		if uf.decl.Ret != nil {
			body = typeCheckFn(body, *uf.decl.Ret, "result of function "+uf.decl.Name.String())
		}
		uf.body = body
		c.popScope()
	}

	body, err := c.compile(q.Body)
	if err != nil {
		return nil, err
	}
	p.body = body
	p.ops = c.ops
	p.opExpr = c.opExpr
	c.fb.init(len(c.ops))
	p.fb = c.fb
	return p, nil
}

func funcKey(q xdm.QName, arity int) string {
	return q.Clark() + "/" + fmt.Sprint(arity)
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, map[string]int{}) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) declare(q xdm.QName) int {
	id := c.nextID
	c.nextID++
	c.scopes[len(c.scopes)-1][q.Clark()] = id
	return id
}

func (c *compiler) resolve(q xdm.QName) (int, bool) {
	key := q.Clark()
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if id, ok := c.scopes[i][key]; ok {
			return id, true
		}
	}
	return 0, false
}

// wrap applies the eager-engine transformation: fully materialize.
func (c *compiler) wrap(fn seqFn) seqFn {
	if !c.opts.Eager {
		return fn
	}
	return func(fr *Frame) Iter {
		seq, err := drainBatched(fr.dyn, fn(fr))
		if err != nil {
			return errIter(err)
		}
		return newSliceIter(seq)
	}
}

// compile dispatches over the expression kinds.
func (c *compiler) compile(e expr.Expr) (seqFn, error) {
	fn, err := c.compileRaw(e)
	if err != nil {
		return nil, err
	}
	return c.wrap(fn), nil
}

func (c *compiler) compileRaw(e expr.Expr) (seqFn, error) {
	switch n := e.(type) {
	case *expr.Literal:
		var v xdm.Item = n.Val // boxed once, not per evaluation
		return func(fr *Frame) Iter { return singleIter(v) }, nil

	case *expr.VarRef:
		id, ok := c.resolve(n.Name)
		if !ok {
			return nil, fmt.Errorf("%d:%d: undeclared variable $%s",
				n.Span().Line, n.Span().Col, n.Name)
		}
		return func(fr *Frame) Iter { return fr.lookup(id).Iterator() }, nil

	case *expr.ContextItem:
		return func(fr *Frame) Iter {
			it, ok := fr.ContextItem()
			if !ok {
				return errIter(xdm.Errf("XPDY0002", "context item is undefined"))
			}
			return singleIter(it)
		}, nil

	case *expr.Root:
		return func(fr *Frame) Iter {
			it, ok := fr.ContextItem()
			if !ok {
				return errIter(xdm.Errf("XPDY0002", "no context item for '/'"))
			}
			node, isNode := it.(xdm.Node)
			if !isNode {
				return errIter(xdm.ErrType("'/' requires a node context item"))
			}
			r := node
			for p := r.Parent(); p != nil; p = p.Parent() {
				r = p
			}
			return singleIter(r)
		}, nil

	case *expr.Seq:
		fns := make([]seqFn, len(n.Items))
		for i, item := range n.Items {
			fn, err := c.compile(item)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		if shared, ok := c.parallelSeqBindings(n); ok {
			return func(fr *Frame) Iter {
				if fr.dyn.Workers > 1 {
					return &parSeqIter{concatIter: concatIter{fr: fr, fns: fns}, shared: shared}
				}
				return newConcatIter(fr, fns)
			}, nil
		}
		return func(fr *Frame) Iter { return newConcatIter(fr, fns) }, nil

	case *expr.Range:
		lo, err := c.compile(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(n.Hi)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) Iter {
			a, okA, err := atomizeSingle(lo(fr))
			if err != nil {
				return errIter(err)
			}
			b, okB, err := atomizeSingle(hi(fr))
			if err != nil {
				return errIter(err)
			}
			if !okA || !okB {
				return emptyIter
			}
			ia, err := requireInteger(a, "range start")
			if err != nil {
				return errIter(err)
			}
			ib, err := requireInteger(b, "range end")
			if err != nil {
				return errIter(err)
			}
			return &rangeIter{cur: ia, end: ib, dyn: fr.dyn}
		}, nil

	case *expr.Arith:
		lf, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		rf, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(fr *Frame) Iter {
			a, okA, err := atomizeSingle(lf(fr))
			if err != nil {
				return errIter(err)
			}
			if !okA {
				return emptyIter
			}
			b, okB, err := atomizeSingle(rf(fr))
			if err != nil {
				return errIter(err)
			}
			if !okB {
				return emptyIter
			}
			r, err := xdm.Arith(op, a, b)
			if err != nil {
				return errIter(err)
			}
			return singleIter(r)
		}, nil

	case *expr.Neg:
		xf, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) Iter {
			a, ok, err := atomizeSingle(xf(fr))
			if err != nil {
				return errIter(err)
			}
			if !ok {
				return emptyIter
			}
			r, err := xdm.Negate(a)
			if err != nil {
				return errIter(err)
			}
			return singleIter(r)
		}, nil

	case *expr.Compare:
		return c.compileCompare(n)

	case *expr.NodeCompare:
		return c.compileNodeCompare(n)

	case *expr.Logic:
		lf, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		rf, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		and := n.And
		return func(fr *Frame) Iter {
			lb, err := ebvOf(lf(fr))
			if err != nil {
				return errIter(err)
			}
			// Short-circuit: the paper's "false and error => false".
			if and && !lb {
				return singleIter(xdm.False)
			}
			if !and && lb {
				return singleIter(xdm.True)
			}
			rb, err := ebvOf(rf(fr))
			if err != nil {
				return errIter(err)
			}
			return singleIter(xdm.NewBoolean(rb))
		}, nil

	case *expr.If:
		cf, err := c.compile(n.Cond)
		if err != nil {
			return nil, err
		}
		tf, err := c.compile(n.Then)
		if err != nil {
			return nil, err
		}
		ef, err := c.compile(n.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) Iter {
			b, err := ebvOf(cf(fr))
			if err != nil {
				return errIter(err)
			}
			if b {
				return tf(fr)
			}
			return ef(fr)
		}, nil

	case *expr.InstanceOf:
		xf, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		t := n.T
		return func(fr *Frame) Iter {
			seq, err := drainBatched(fr.dyn, xf(fr))
			if err != nil {
				return errIter(err)
			}
			return singleIter(xdm.NewBoolean(t.Matches(seq)))
		}, nil

	case *expr.Treat:
		xf, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		return typeCheckFn(xf, n.T, "treat as "+n.T.String()), nil

	case *expr.Cast:
		return c.compileCast(n)

	case *expr.Typeswitch:
		return c.compileTypeswitch(n)

	case *expr.SetOp:
		return c.compileSetOp(n)

	case *expr.Path:
		return c.compilePath(n)

	case *expr.Step:
		return c.compileStep(n)

	case *expr.Filter:
		return c.compileFilter(n)

	case *expr.Flwor:
		return c.compileFlwor(n)

	case *expr.Quantified:
		return c.compileQuantified(n)

	case *expr.TryCatch:
		return c.compileTryCatch(n)

	case *expr.Call:
		return c.compileCall(n)

	case *expr.ElemConstructor, *expr.AttrConstructor, *expr.TextConstructor,
		*expr.CommentConstructor, *expr.PIConstructor, *expr.DocConstructor:
		return c.compileConstructor(e)

	default:
		return nil, fmt.Errorf("runtime: cannot compile %T", e)
	}
}

// ---- helper evaluation pieces ----

// rangeIter counts through lo..hi, a whole chunk per batch pull.
type rangeIter struct {
	cur, end int64
	dyn      *Dynamic
}

func (r *rangeIter) Next() (xdm.Item, bool, error) {
	if r.cur > r.end {
		return nil, false, nil
	}
	if err := r.dyn.CheckInterrupt(); err != nil {
		return nil, false, err
	}
	v := xdm.NewInteger(r.cur)
	r.cur++
	return v, true, nil
}

// remaining implements sizedIter: a range knows its cardinality.
func (r *rangeIter) remaining() (int64, bool) {
	if r.cur > r.end {
		return 0, true
	}
	return r.end - r.cur + 1, true
}

// NextBatch implements BatchIter.
func (r *rangeIter) NextBatch(buf []xdm.Item) (int, error) {
	n := 0
	for n < len(buf) && r.cur <= r.end {
		buf[n] = xdm.NewInteger(r.cur)
		r.cur++
		n++
	}
	if err := r.dyn.CheckInterruptN(n); err != nil {
		return n, err
	}
	return n, nil
}

// concatIter concatenates the results of several compiled expressions.
type concatIter struct {
	fr  *Frame
	fns []seqFn
	idx int
	cur Iter
}

func newConcatIter(fr *Frame, fns []seqFn) Iter { return &concatIter{fr: fr, fns: fns} }

func (ci *concatIter) Next() (xdm.Item, bool, error) {
	for {
		if ci.cur == nil {
			if ci.idx >= len(ci.fns) {
				return nil, false, nil
			}
			ci.cur = ci.fns[ci.idx](ci.fr)
			ci.idx++
		}
		it, ok, err := ci.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return it, true, nil
		}
		ci.cur = nil
	}
}

// NextBatch implements BatchIter: the batch demand is forwarded to the
// current operand, so a whole chain of concatenations moves chunks.
func (ci *concatIter) NextBatch(buf []xdm.Item) (int, error) {
	for {
		if ci.cur == nil {
			if ci.idx >= len(ci.fns) {
				return 0, nil
			}
			ci.cur = ci.fns[ci.idx](ci.fr)
			ci.idx++
		}
		n, err := nextBatch(ci.cur, buf)
		if err != nil || n > 0 {
			return n, err
		}
		ci.cur = nil
	}
}

// atomizeSingle pulls at most one item and atomizes it; a second item is a
// type error, an empty input yields ok=false.
func atomizeSingle(it Iter) (xdm.Atomic, bool, error) {
	first, ok, err := it.Next()
	if err != nil {
		return xdm.Atomic{}, false, err
	}
	if !ok {
		return xdm.Atomic{}, false, nil
	}
	if _, extra, err := it.Next(); err != nil {
		return xdm.Atomic{}, false, err
	} else if extra {
		return xdm.Atomic{}, false, xdm.ErrType("a sequence of more than one item cannot be atomized to a single value")
	}
	return xdm.Atomize(first), true, nil
}

// ebvOf computes the effective boolean value of an iterator, pulling at
// most two items (lazy: a node first item decides immediately).
func ebvOf(it Iter) (bool, error) {
	first, ok, err := it.Next()
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	if first.IsNode() {
		return true, nil
	}
	if _, extra, err := it.Next(); err != nil {
		return false, err
	} else if extra {
		return false, xdm.ErrType("effective boolean value of a multi-item atomic sequence")
	}
	return xdm.EffectiveBooleanItem(first)
}

func requireInteger(a xdm.Atomic, what string) (int64, error) {
	switch a.T {
	case xdm.TInteger:
		return a.I, nil
	case xdm.TUntyped:
		cast, err := xdm.Cast(a, xdm.TInteger)
		if err != nil {
			return 0, err
		}
		return cast.I, nil
	case xdm.TDecimal, xdm.TDouble, xdm.TFloat:
		f := a.AsFloat()
		if f == float64(int64(f)) {
			return int64(f), nil
		}
	}
	return 0, xdm.ErrType("%s must be an integer, got %s", what, a.T)
}

// typeCheckFn wraps a compiled expression with a lazy sequence-type check
// (item types checked as items stream by, cardinality at the boundaries).
func typeCheckFn(fn seqFn, t xtypes.SequenceType, what string) seqFn {
	return func(fr *Frame) Iter {
		src := fn(fr)
		count := 0
		done := false
		return iterFunc(func() (xdm.Item, bool, error) {
			if done {
				return nil, false, nil
			}
			it, ok, err := src.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				done = true
				if count == 0 && (t.Occ == xtypes.OccOne || t.Occ == xtypes.OccPlus) {
					return nil, false, xdm.ErrType("%s: empty sequence where %s required", what, t)
				}
				return nil, false, nil
			}
			count++
			if t.Occ == xtypes.OccEmpty ||
				(count > 1 && (t.Occ == xtypes.OccOne || t.Occ == xtypes.OccOpt)) {
				return nil, false, xdm.ErrType("%s: more items than %s allows", what, t)
			}
			if !t.Item.MatchesItem(it) {
				return nil, false, xdm.ErrType("%s: item does not match %s", what, t)
			}
			return it, true, nil
		})
	}
}

func (c *compiler) compileCompare(n *expr.Compare) (seqFn, error) {
	lf, err := c.compile(n.L)
	if err != nil {
		return nil, err
	}
	rf, err := c.compile(n.R)
	if err != nil {
		return nil, err
	}
	op := n.Op
	if n.Kind == expr.CompValue {
		return func(fr *Frame) Iter {
			a, okA, err := atomizeSingle(lf(fr))
			if err != nil {
				return errIter(err)
			}
			if !okA {
				return emptyIter
			}
			b, okB, err := atomizeSingle(rf(fr))
			if err != nil {
				return errIter(err)
			}
			if !okB {
				return emptyIter
			}
			r, err := xdm.ValueCompare(op, a, b)
			if err != nil {
				return errIter(err)
			}
			return singleIter(xdm.NewBoolean(r))
		}, nil
	}
	// General comparison: implicit existential quantification over both
	// sides. The right side is materialized once (memoized); the left side
	// streams, so a match can short-circuit without draining the left input.
	return func(fr *Frame) Iter {
		li := lf(fr)
		rseq := NewLazySeq(rf(fr))
		for {
			l, ok, err := li.Next()
			if err != nil {
				return errIter(err)
			}
			if !ok {
				return singleIter(xdm.False)
			}
			la := xdm.Atomize(l)
			ri := rseq.Iterator()
			for {
				r, rok, err := ri.Next()
				if err != nil {
					return errIter(err)
				}
				if !rok {
					break
				}
				match, err := xdm.GeneralCompareItems(op, la, xdm.Atomize(r))
				if err != nil {
					return errIter(err)
				}
				if match {
					return singleIter(xdm.True)
				}
			}
		}
	}, nil
}

func (c *compiler) compileNodeCompare(n *expr.NodeCompare) (seqFn, error) {
	lf, err := c.compile(n.L)
	if err != nil {
		return nil, err
	}
	rf, err := c.compile(n.R)
	if err != nil {
		return nil, err
	}
	op := n.Op
	return func(fr *Frame) Iter {
		ln, okL, err := singleNode(lf(fr))
		if err != nil {
			return errIter(err)
		}
		rn, okR, err := singleNode(rf(fr))
		if err != nil {
			return errIter(err)
		}
		if !okL || !okR {
			return emptyIter
		}
		var res bool
		switch op {
		case expr.NodeIs:
			res = ln.SameNode(rn)
		case expr.NodePrecedes:
			res = xdm.CompareOrder(ln, rn) < 0
		default:
			res = xdm.CompareOrder(ln, rn) > 0
		}
		return singleIter(xdm.NewBoolean(res))
	}, nil
}

func singleNode(it Iter) (xdm.Node, bool, error) {
	first, ok, err := it.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	n, isNode := first.(xdm.Node)
	if !isNode {
		return nil, false, xdm.ErrType("node comparison requires nodes")
	}
	if _, extra, err := it.Next(); err != nil {
		return nil, false, err
	} else if extra {
		return nil, false, xdm.ErrType("node comparison requires single nodes")
	}
	return n, true, nil
}

func (c *compiler) compileCast(n *expr.Cast) (seqFn, error) {
	xf, err := c.compile(n.X)
	if err != nil {
		return nil, err
	}
	target, optional, castable := n.T, n.Optional, n.Castable
	return func(fr *Frame) Iter {
		a, ok, err := atomizeSingle(xf(fr))
		if err != nil {
			if castable {
				return singleIter(xdm.False)
			}
			return errIter(err)
		}
		if !ok {
			if castable {
				return singleIter(xdm.NewBoolean(optional))
			}
			if optional {
				return emptyIter
			}
			return errIter(xdm.ErrType("cast of an empty sequence to %s", target))
		}
		if castable {
			return singleIter(xdm.NewBoolean(xdm.Castable(a, target)))
		}
		r, err := xdm.Cast(a, target)
		if err != nil {
			return errIter(err)
		}
		return singleIter(r)
	}, nil
}

func (c *compiler) compileTypeswitch(n *expr.Typeswitch) (seqFn, error) {
	inFn, err := c.compile(n.Input)
	if err != nil {
		return nil, err
	}
	type tsCase struct {
		t     xtypes.SequenceType
		id    int
		bound bool
		body  seqFn
	}
	var cases []tsCase
	for _, cs := range n.Cases {
		c.pushScope()
		tc := tsCase{t: cs.Type}
		if !cs.Var.IsZero() {
			tc.id = c.declare(cs.Var)
			tc.bound = true
		}
		body, err := c.compile(cs.Body)
		c.popScope()
		if err != nil {
			return nil, err
		}
		tc.body = body
		cases = append(cases, tc)
	}
	c.pushScope()
	defID := -1
	if !n.DefaultVar.IsZero() {
		defID = c.declare(n.DefaultVar)
	}
	defFn, err := c.compile(n.Default)
	c.popScope()
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) Iter {
		seq, err := drainBatched(fr.dyn, inFn(fr))
		if err != nil {
			return errIter(err)
		}
		for _, cs := range cases {
			if cs.t.Matches(seq) {
				f2 := fr
				if cs.bound {
					f2 = fr.bind(cs.id, MaterializedSeq(seq))
				}
				return cs.body(f2)
			}
		}
		f2 := fr
		if defID >= 0 {
			f2 = fr.bind(defID, MaterializedSeq(seq))
		}
		return defFn(f2)
	}, nil
}

func (c *compiler) compileSetOp(n *expr.SetOp) (seqFn, error) {
	lf, err := c.compile(n.L)
	if err != nil {
		return nil, err
	}
	rf, err := c.compile(n.R)
	if err != nil {
		return nil, err
	}
	op := n.Op
	fn := func(fr *Frame) Iter {
		lseq, err := drainBatched(fr.dyn, lf(fr))
		if err != nil {
			return errIter(err)
		}
		rseq, err := drainBatched(fr.dyn, rf(fr))
		if err != nil {
			return errIter(err)
		}
		if lseq, err = sortNodesDedup(lseq); err != nil {
			return errIter(err)
		}
		if rseq, err = sortNodesDedup(rseq); err != nil {
			return errIter(err)
		}
		var out xdm.Sequence
		switch op {
		case expr.SetUnion:
			out = mergeByDocOrder(lseq, rseq, true, true, true)
		case expr.SetIntersect:
			out = mergeByDocOrder(lseq, rseq, false, false, true)
		default: // except
			out = mergeByDocOrder(lseq, rseq, true, false, false)
		}
		return newSliceIter(out)
	}
	return c.tag("set-op", n, fn), nil
}

// funcCreatesNodes resolves the paper's "can this call create new nodes?"
// question: built-ins answer from the property table, user functions from
// their bodies (recursion-aware: a cycle back into a function under
// analysis contributes nothing by itself).
func (c *compiler) funcCreatesNodes(call *expr.Call) bool {
	return c.funcCreatesNodesRec(call, map[string]bool{})
}

func (c *compiler) funcCreatesNodesRec(call *expr.Call, visiting map[string]bool) bool {
	if uf, ok := c.funcs[funcKey(call.Name, len(call.Args))]; ok {
		key := funcKey(call.Name, len(call.Args))
		if visiting[key] {
			return false
		}
		visiting[key] = true
		return expr.CreatesNodes(uf.decl.Body, func(c2 *expr.Call) bool {
			return c.funcCreatesNodesRec(c2, visiting)
		})
	}
	if f, _ := functions.Lookup(call.Name.Local, len(call.Args)); f != nil {
		return f.Props.CreatesNodes
	}
	return true
}
