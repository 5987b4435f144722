package runtime

import (
	"fmt"

	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/optimizer"
	"xqgo/internal/projection"
	"xqgo/internal/store"
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
	// (//a//b …): StrategyAuto (the zero value) picks per branch and per
	// document with the cost model in internal/optimizer; the other values
	// pin one execution strategy.
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
	chains map[expr.Expr]*chain // the step chains compiled so far, for their consumers
}

// Compile compiles a parsed query for the given engine options.
func Compile(q *expr.Query, opts Options) (*Prepared, error) {
	c := &compiler{opts: opts, funcs: map[string]*userFunc{}, fb: &feedback{}, chains: map[expr.Expr]*chain{}}
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
		seq, err := drain(fr.dyn, fn(fr))
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
			return nil, xdm.Errf("XPST0008", "%d:%d: undeclared variable $%s",
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
		if _, seq, ok, err := c.compileNum(n); ok {
			return seq, err // integer arithmetic, read as an int64
		}
		lf, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		rf, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		return arithSeq(n.Op, lf, rf), nil

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

	case *expr.Compare, *expr.Logic, *expr.Quantified:
		_, seq, _, err := c.compileTest(e)
		return seq, err

	case *expr.NodeCompare:
		return c.compileNodeCompare(n)

	case *expr.If:
		cond, err := c.compileCond(n.Cond)
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
			b, err := cond(fr)
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
			seq, err := drain(fr.dyn, xf(fr))
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

// rangeIter counts through lo..hi.
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

// concatIter concatenates the results of several compiled expressions.
type concatIter struct {
	fr    *Frame
	fns   []seqFn
	idx   int
	cur   Iter
	drain bool
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
			if ci.drain {
				markDrain(ci.cur)
			}
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

// markDrain implements drainer: the current operand and every later one
// are read to the end.
func (ci *concatIter) markDrain() {
	ci.drain = true
	if ci.cur != nil {
		markDrain(ci.cur)
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
		return xdm.Atomic{}, false, errTooMany
	}
	return xdm.Atomize(first), true, nil
}

// errTooMany is atomizeSingle's error for a sequence of two or more items.
var errTooMany = xdm.ErrType("a sequence of more than one item cannot be atomized to a single value")

// ebvOf is the generic condition: the effective boolean value of any
// expression's iterator, pulling at most two items.
func ebvOf(it Iter) (bool, error) {
	first, more, err := ebvPrefix(it)
	if err != nil || first == nil {
		return false, err
	}
	return xdm.EffectiveBooleanItem(first, more)
}

// ebvPrefix pulls what the effective boolean value reads: the first item
// (nil for the empty sequence) and, only when it is atomic, whether a
// second follows. A node first item decides without another pull.
func ebvPrefix(it Iter) (first xdm.Item, more bool, err error) {
	first, ok, err := it.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	if !first.IsNode() {
		_, more, err = it.Next()
	}
	return first, more, err
}

func requireInteger(a xdm.Atomic, what string) (int64, error) {
	switch a.T {
	case xdm.TInteger:
		return a.Int(), nil
	case xdm.TUntyped:
		cast, err := xdm.Cast(a, xdm.TInteger)
		if err != nil {
			return 0, err
		}
		return cast.Int(), nil
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

// condFn is a compiled condition: the effective boolean value of an
// expression, computed without an iterator or a result item.
type condFn func(fr *Frame) (bool, error)

// compileCond compiles e for a consumer of its effective boolean value
// (where, if, and/or, fn:not, fn:boolean, satisfies, a boolean predicate).
// Comparisons, and/or, quantifiers, fn:not and fn:boolean are conditions
// natively; any other expression is read through its iterator.
func (c *compiler) compileCond(e expr.Expr) (condFn, error) {
	if cond, _, ok, err := c.compileTest(e); ok {
		return cond, err
	}
	fn, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	ch := c.chains[e]
	return func(fr *Frame) (bool, error) {
		if found, ok, err := ch.exists(fr); ok {
			return found, err
		}
		return ebvOf(fn(fr))
	}, nil
}

// compileTest compiles an expression that is a condition natively into its
// condition and sequence forms, once; ok=false for any other expression.
func (c *compiler) compileTest(e expr.Expr) (cond condFn, seq seqFn, ok bool, err error) {
	switch n := e.(type) {
	case *expr.Compare:
		cond, seq, err = c.compileCompare(n)
	case *expr.Logic:
		cond, err = c.compileLogic(n)
		seq = boolSeq(cond)
	case *expr.Quantified:
		if cond, err = c.compileQuantified(n); err == nil {
			cond, seq = tagScalar(c, "quantified", n, cond, boolItem)
		}
	case *expr.Call:
		local := n.Name.Local
		if len(n.Args) != 1 || (local != "not" && local != "boolean") ||
			(n.Name.Space != fnNS && n.Name.Space != "") || c.funcs[funcKey(n.Name, 1)] != nil {
			return nil, nil, false, nil
		}
		arg, err := c.compileCond(n.Args[0])
		if err != nil {
			return nil, nil, true, err
		}
		negate := local == "not"
		cond, seq = tagScalar(c, "call "+n.Name.String(), n, func(fr *Frame) (bool, error) {
			b, err := arg(fr)
			return err == nil && b != negate, err
		}, boolItem)
	default:
		return nil, nil, false, nil
	}
	return cond, seq, true, err
}

// trueItem and falseItem are the two boolean results, boxed once.
var trueItem, falseItem xdm.Item = xdm.True, xdm.False

func boolItem(b bool) xdm.Item {
	if b {
		return trueItem
	}
	return falseItem
}

// boolSeq is the sequence form of a condition: its one boolean.
func boolSeq(cond condFn) seqFn {
	return func(fr *Frame) Iter {
		b, err := cond(fr)
		if err != nil {
			return errIter(err)
		}
		return singleIter(boolItem(b))
	}
}

// compileLogic compiles and/or with the paper's short circuit: "false and
// error" is false, "true or error" is true.
func (c *compiler) compileLogic(n *expr.Logic) (condFn, error) {
	lc, err := c.compileCond(n.L)
	if err != nil {
		return nil, err
	}
	rc, err := c.compileCond(n.R)
	if err != nil {
		return nil, err
	}
	and := n.And
	return func(fr *Frame) (bool, error) {
		lb, err := lc(fr)
		if err != nil || lb != and {
			return lb, err
		}
		return rc(fr)
	}, nil
}

// compileCompare compiles a comparison once, as a condition; the sequence
// form wraps it. A literal operand is atomized at compile time and the
// other operand streams.
func (c *compiler) compileCompare(n *expr.Compare) (condFn, seqFn, error) {
	lo, err := c.compileOperand(n.L)
	if err != nil {
		return nil, nil, err
	}
	ro, err := c.compileOperand(n.R)
	if err != nil {
		return nil, nil, err
	}
	op := n.Op
	// A string literal against the other operand's stored nodes compares
	// their text in place: lt tests the left operand, rt the right.
	var lt, rt nodeTest
	if lo.lit == nil {
		lt = textTest(op, ro.lit)
	} else if ro.lit == nil {
		rt = textTest(op, lo.lit)
	}
	if n.Kind == expr.CompValue {
		// An empty operand makes the result the empty sequence, which the
		// condition reads as false.
		cmp := func(fr *Frame) (r, ok bool, err error) {
			switch {
			case lt != nil:
				return lo.singleTest(fr, lt, op, *ro.lit)
			case rt != nil:
				return ro.singleTest(fr, rt, op, *lo.lit)
			}
			a, ok, err := lo.single(fr)
			if err != nil || !ok {
				return false, false, err
			}
			b, ok, err := ro.single(fr)
			if err != nil || !ok {
				return false, false, err
			}
			r, err = xdm.ValueCompare(op, a, b)
			return r, true, err
		}
		cond := func(fr *Frame) (bool, error) {
			r, _, err := cmp(fr)
			return r, err
		}
		seq := func(fr *Frame) Iter {
			r, ok, err := cmp(fr)
			switch {
			case err != nil:
				return errIter(err)
			case !ok:
				return emptyIter
			}
			return singleIter(boolItem(r))
		}
		return cond, seq, nil
	}
	// General comparison: existential over both operands, stopping at the
	// first match. Against a literal the other side streams once; otherwise
	// the left side streams and the right side is memoized — a variable's
	// own memoized value, when it is one.
	var cond condFn
	switch {
	case lo.lit != nil && ro.lit != nil: // unoptimized: nothing folded them
		a, b := *lo.lit, *ro.lit
		cond = func(*Frame) (bool, error) { return xdm.GeneralCompareItems(op, a, b) }
	case ro.lit != nil:
		b := *ro.lit
		cond = func(fr *Frame) (bool, error) {
			return lo.any(fr, func(a xdm.Atomic) (bool, error) { return xdm.GeneralCompareItems(op, a, b) }, lt)
		}
	case lo.lit != nil:
		a := *lo.lit
		cond = func(fr *Frame) (bool, error) {
			return ro.any(fr, func(b xdm.Atomic) (bool, error) { return xdm.GeneralCompareItems(op, a, b) }, rt)
		}
	default:
		right := func(fr *Frame) *LazySeq { return NewLazySeq(ro.fn(fr)) }
		if v, ok := n.R.(*expr.VarRef); ok && !c.opts.Eager {
			id, _ := c.resolve(v.Name)
			right = func(fr *Frame) *LazySeq { return fr.lookup(id) }
		}
		cond = func(fr *Frame) (bool, error) {
			rseq := right(fr)
			return lo.any(fr, func(a xdm.Atomic) (bool, error) {
				for i := 0; ; i++ {
					b, ok, err := rseq.at(i)
					if err != nil || !ok {
						return false, err
					}
					if m, err := xdm.GeneralCompareItems(op, a, xdm.Atomize(b)); err != nil || m {
						return m, err
					}
				}
			}, nil)
		}
	}
	return cond, boolSeq(cond), nil
}

// arithSeq is the generic arithmetic operator: its operands atomized, the
// empty-sequence rule, then xdm.Arith. Its closure holds the two operands
// and the operator in 32 bytes (TestArithClosureSize); integer arithmetic
// compiles to numFns instead (compileNum).
func arithSeq(op xdm.ArithOp, lf, rf seqFn) seqFn {
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
	}
}

// operand is a compiled expression that its consumer atomizes to the end
// inside one call: a literal's value, an integer read as one (fn:position,
// fn:last, fn:count), a step chain the consumer walks on its stack, or
// else the expression's iterator.
type operand struct {
	fn  seqFn
	lit *xdm.Atomic
	num numFn
	ch  *chain
}

// compileOperand compiles an operand; a literal comes back as its value,
// to be compared without evaluating anything.
func (c *compiler) compileOperand(e expr.Expr) (operand, error) {
	if lit, ok := e.(*expr.Literal); ok {
		v := lit.Val
		return operand{lit: &v}, nil
	}
	if num, seq, ok, err := c.compileNum(e); ok {
		return operand{fn: seq, num: num}, err
	}
	fn, err := c.compile(e)
	return operand{fn: fn, ch: c.chains[e]}, err
}

// single atomizes at most one item of the operand; a second item is a type
// error, an empty operand yields ok=false.
func (o operand) single(fr *Frame) (a xdm.Atomic, ok bool, err error) {
	if o.lit != nil {
		return *o.lit, true, nil
	}
	if o.num != nil {
		k, err := o.num(fr)
		return xdm.NewInteger(k), err == nil, err
	}
	n := 0
	if walked, err := o.ch.walk(fr, func(d *store.Document, id int32) (bool, error) {
		if n++; n > 1 {
			return true, errTooMany
		}
		a = xdm.NewUntyped(d.StringValue(id))
		return false, nil
	}); walked {
		return a, n == 1 && err == nil, err
	}
	return atomizeSingle(o.fn(fr))
}

// singleTest is a value comparison of the operand with the literal lit by
// op: a chain's one node is read by node, in place; the operand holds at
// most one item, as single requires.
func (o operand) singleTest(fr *Frame, node nodeTest, op xdm.CompOp, lit xdm.Atomic) (r, ok bool, err error) {
	n := 0
	if walked, err := o.ch.walk(fr, func(d *store.Document, id int32) (bool, error) {
		if n++; n > 1 {
			return true, errTooMany
		}
		r = node(d, id)
		return false, nil
	}); walked {
		return r, n == 1 && err == nil, err
	}
	a, ok, err := atomizeSingle(o.fn(fr))
	if err != nil || !ok {
		return false, false, err
	}
	r, err = xdm.ValueCompare(op, a, lit) // eq and ne are symmetric
	return r, err == nil, err
}

// nodeTest is a comparison's test of one stored node, read by id.
type nodeTest func(d *store.Document, id int32) bool

// textTest is the in-place test of a comparison by op with the literal
// lit: = and != (eq and ne) with an xs:string or untyped literal, which a
// stored node's untyped value meets as a string, compare the node's text
// runs where they are stored instead of building its string value. nil
// for any other comparison: a numeric literal keeps the cast.
func textTest(op xdm.CompOp, lit *xdm.Atomic) nodeTest {
	if lit == nil || op != xdm.OpEq && op != xdm.OpNe || lit.T != xdm.TString && lit.T != xdm.TUntyped {
		return nil
	}
	s, ne := lit.S, op == xdm.OpNe
	return func(d *store.Document, id int32) bool { return d.StringValueEquals(id, s) != ne }
}

// any reports whether test holds for the atomized value of some item of
// the operand, reading no further than the first that does. A stored node
// is tested by node instead, when it is set.
func (o operand) any(fr *Frame, test func(xdm.Atomic) (bool, error), node nodeTest) (found bool, err error) {
	if o.num != nil {
		k, err := o.num(fr)
		if err != nil {
			return false, err
		}
		return test(xdm.NewInteger(k))
	}
	if walked, err := o.ch.walk(fr, func(d *store.Document, id int32) (bool, error) {
		if node != nil {
			found = node(d, id)
			return found, nil
		}
		found, err = test(xdm.NewUntyped(d.StringValue(id)))
		return found, err
	}); walked {
		return found, err
	}
	for it := o.fn(fr); ; {
		x, ok, err := it.Next()
		if err != nil || !ok {
			return false, err
		}
		if sn, stored := x.(*store.Node); stored && node != nil {
			if node(sn.D, sn.ID) {
				return true, nil
			}
			continue
		}
		if m, err := test(xdm.Atomize(x)); err != nil || m {
			return m, err
		}
	}
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
		switch {
		case castable && err == errTooMany: // no cast takes two items; the operand's own errors stand
			return singleIter(xdm.False)
		case err != nil:
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
		seq, err := drain(fr.dyn, inFn(fr))
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
		lseq, err := drain(fr.dyn, lf(fr))
		if err != nil {
			return errIter(err)
		}
		rseq, err := drain(fr.dyn, rf(fr))
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
