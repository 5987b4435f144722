package runtime

import (
	"fmt"

	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// Function calls. Built-ins receive materialized arguments, except for a
// short list of sequence predicates that the compiler wires to the lazy
// iterator protocol directly (fn:empty pulls one item, fn:count never
// materializes, ...) — the lazy-evaluation payoffs of E3.

const fnNS = functions.Namespace

func (c *compiler) compileCall(n *expr.Call) (seqFn, error) {
	if _, seq, ok, err := c.compileTest(n); ok {
		return seq, err // fn:not and fn:boolean, tagged there
	}
	if _, seq, ok, err := c.compileNum(n); ok {
		return seq, err // fn:position, fn:last and fn:count, tagged there
	}
	fn, err := c.compileCallRaw(n)
	if err != nil {
		return nil, err
	}
	return c.tag("call "+n.Name.String(), n, fn), nil
}

func (c *compiler) compileCallRaw(n *expr.Call) (seqFn, error) {
	// User-declared function?
	if uf, ok := c.funcs[funcKey(n.Name, len(n.Args))]; ok {
		return c.compileUserCall(n, uf)
	}
	if !functions.Resolves(n.Name, len(n.Args)) {
		return nil, xdm.Errf("XPST0017", "%d:%d: unknown function %s/%d",
			n.Span().Line, n.Span().Col, n.Name, len(n.Args))
	}
	// Constructor functions: xs:integer("42") etc. behave as "cast as T?".
	if tc, ok := functions.Constructor(n.Name); ok {
		return c.compileRaw(&expr.Cast{
			Base: expr.Base{P: n.Span()}, X: n.Args[0], T: tc, Optional: true,
		})
	}
	local := n.Name.Local

	argFns := make([]seqFn, len(n.Args))
	chs := make([]*chain, len(n.Args))
	for i, a := range n.Args {
		fn, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		argFns[i], chs[i] = fn, c.chains[a]
	}

	// Lazy special forms.
	if fn, handled := c.lazyBuiltin(local, argFns, chs); handled {
		return fn, nil
	}

	if f, ok := functions.NewFold(local); ok {
		return foldOf(f, argFns, chs[0]), nil
	}

	// A chain argument is walked on the stack, passing its stored nodes.
	f, _ := functions.Lookup(local, len(n.Args))
	return func(fr *Frame) Iter {
		args := make([]xdm.Sequence, len(argFns))
		for i, afn := range argFns {
			var seq xdm.Sequence
			walked, err := chs[i].walk(fr, func(d *store.Document, id int32) (bool, error) {
				seq = append(seq, d.Node(id))
				return false, nil
			})
			if !walked {
				seq, err = drain(fr.dyn, afn(fr))
			}
			if err != nil {
				return errIter(err)
			}
			args[i] = seq
		}
		out, err := f.Call(fr, args)
		if err != nil {
			return errIter(err)
		}
		return newSliceIter(out)
	}, nil
}

// foldOf feeds a folded built-in's accumulator (sum, avg, min, max,
// distinct-values) over its first argument without materializing it: a
// chain is walked on the stack, each node handed over as the untyped atomic
// of its string value, read in place; any other argument is pulled an item
// at a time. The other arguments (sum's zero) are materialized.
func foldOf(fold functions.Fold, argFns []seqFn, ch *chain) seqFn {
	return func(fr *Frame) Iter {
		f := fold
		walked, err := ch.walk(fr, func(d *store.Document, id int32) (bool, error) {
			return f.Add(xdm.NewUntyped(d.StringValue(id)))
		})
		if !walked {
			err = foldIter(&f, argFns[0](fr))
		}
		rest := make([]xdm.Sequence, len(argFns)-1)
		for i := 0; i < len(rest) && err == nil; i++ {
			rest[i], err = drain(fr.dyn, argFns[i+1](fr))
		}
		if err != nil {
			return errIter(err)
		}
		out, err := f.Result(rest)
		if err != nil {
			return errIter(err)
		}
		return newSliceIter(out)
	}
}

// foldIter is foldOf's pull loop over a marked iterator.
func foldIter(f *functions.Fold, it Iter) error {
	markDrain(it)
	for {
		x, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		if done, ferr := f.Add(xdm.Atomize(x)); done || ferr != nil {
			return ferr
		}
	}
}

// lazyBuiltin wires the sequence predicates that benefit from lazy inputs;
// a chain argument is walked on the stack.
func (c *compiler) lazyBuiltin(local string, argFns []seqFn, chs []*chain) (seqFn, bool) {
	switch local {
	case "empty", "exists":
		wantEmpty := local == "empty"
		return func(fr *Frame) Iter {
			found, walked, err := chs[0].exists(fr)
			if !walked {
				_, found, err = argFns[0](fr).Next() // pull exactly one item
			}
			if err != nil {
				return errIter(err)
			}
			return singleIter(boolItem(found == !wantEmpty))
		}, true
	case "subsequence":
		return func(fr *Frame) Iter {
			var bounds [2]xdm.Atomic
			for i, afn := range argFns[1:] {
				a, ok, err := atomizeSingle(afn(fr))
				if err == nil && !ok {
					err = xdm.ErrType("fn:subsequence: an empty sequence is no position")
				}
				if err != nil {
					return errIter(err)
				}
				bounds[i] = a
			}
			from, to, err := functions.SubsequenceWindow(bounds[0], bounds[1], len(argFns) == 3)
			if err != nil {
				return errIter(err)
			}
			src := argFns[0](fr)
			pos := int64(0)
			return iterFunc(func() (xdm.Item, bool, error) {
				for pos < to {
					it, ok, err := src.Next()
					if err != nil || !ok {
						return nil, false, err
					}
					if pos++; pos >= from {
						return it, true, nil
					}
				}
				return nil, false, nil // early exit
			})
		}, true
	case "unordered":
		fn := argFns[0]
		return func(fr *Frame) Iter { return fn(fr) }, true
	}
	return nil, false
}

// numFn is a compiled integer-valued expression, read without an iterator
// or a boxed item.
type numFn func(fr *Frame) (int64, error)

// compileNum compiles an integer-shaped expression (isNum) into its integer
// and sequence forms, once; ok=false for any other expression.
func (c *compiler) compileNum(e expr.Expr) (num numFn, seq seqFn, ok bool, err error) {
	if !c.isNum(e) {
		return nil, nil, false, nil
	}
	if n, isCall := e.(*expr.Call); isCall {
		num, seq, err = c.numCall(n)
		return num, seq, true, err
	}
	num, err = c.numOf(e)
	return num, numSeq(num), true, err
}

// numSeq is the sequence form of an untagged numFn: its integer, boxed.
func numSeq(num numFn) seqFn {
	return func(fr *Frame) Iter {
		k, err := num(fr)
		if err != nil {
			return errIter(err)
		}
		return singleIter(xdm.NewInteger(k))
	}
}

// numCall compiles fn:position(), fn:last() or fn:count(E), tagged.
func (c *compiler) numCall(n *expr.Call) (num numFn, seq seqFn, err error) {
	switch n.Name.Local {
	case "position":
		num = func(fr *Frame) (int64, error) {
			if ff := fr.focusFrame(); ff != nil {
				return ff.ctxPos, nil
			}
			return 0, xdm.Errf("XPDY0002", "fn:position(): no context")
		}
	case "last":
		num = (*Frame).Size
	default:
		arg, err := c.compile(n.Args[0])
		if err != nil {
			return nil, nil, err
		}
		num = countOf(arg, c.chains[n.Args[0]])
	}
	num, seq = tagScalar(c, "call "+n.Name.String(), n, num, func(k int64) xdm.Item { return xdm.NewInteger(k) })
	return num, seq, nil
}

// isNum reports whether e has an integer form, read from its shape alone:
// fn:position(), fn:last() or fn:count(E), or +, -, *, idiv or mod whose
// operands are such expressions or integer literals.
func (c *compiler) isNum(e expr.Expr) bool {
	switch n := e.(type) {
	case *expr.Call:
		return (expr.IsBuiltin(n, "position", 0) || expr.IsBuiltin(n, "last", 0) || expr.IsBuiltin(n, "count", 1)) &&
			c.funcs[funcKey(n.Name, len(n.Args))] == nil
	case *expr.Arith:
		return n.Op != xdm.OpDiv && c.isNumOperand(n.L) && c.isNumOperand(n.R)
	}
	return false
}

func (c *compiler) isNumOperand(e expr.Expr) bool {
	lit, ok := e.(*expr.Literal)
	return ok && lit.Val.T == xdm.TInteger || c.isNum(e)
}

// numOf compiles an operand of integer arithmetic that isNum accepted: an
// integer literal, a call, or arithmetic on the xs:integer kernel that
// xdm.Arith runs too.
func (c *compiler) numOf(e expr.Expr) (numFn, error) {
	switch n := e.(type) {
	case *expr.Literal:
		k := n.Val.Int()
		return func(*Frame) (int64, error) { return k, nil }, nil
	case *expr.Arith:
		l, err := c.numOf(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.numOf(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(fr *Frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			if err != nil {
				return 0, err
			}
			return xdm.IntArith(op, a, b)
		}, nil
	}
	num, _, err := c.numCall(e.(*expr.Call))
	return num, err
}

// countOf is fn:count: a chain is walked on the stack, a source that
// knows its cardinality (range, materialized slice) skips production, and
// any other input is marked and pulled to its end without being kept.
func countOf(arg seqFn, ch *chain) numFn {
	return func(fr *Frame) (int64, error) {
		if n, walked, err := ch.walkN(fr, func(*store.Document, int32) (bool, error) { return false, nil }); walked {
			return n, err
		}
		it := arg(fr)
		if sz, ok := it.(sizedIter); ok {
			if n, known := sz.remaining(); known {
				return n, nil
			}
		}
		markDrain(it)
		for n := int64(0); ; n++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				return n, err
			}
		}
	}
}

func (c *compiler) compileUserCall(n *expr.Call, uf *userFunc) (seqFn, error) {
	argFns := make([]seqFn, len(n.Args))
	for i, a := range n.Args {
		fn, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		argFns[i] = fn
	}
	decl := uf.decl
	if c.opts.MemoizeFunctions && c.memoizable(uf) {
		return c.compileMemoizedCall(n, uf, argFns), nil
	}
	return func(fr *Frame) Iter {
		// Bind parameters lazily; clear the focus (the context item is
		// undefined inside a function body).
		f2 := fr.barrier()
		for i, afn := range argFns {
			val := NewLazySeq(afn(fr))
			if decl.Params[i].Type != nil {
				seq, err := val.All()
				if err != nil {
					return errIter(err)
				}
				if !decl.Params[i].Type.Matches(seq) {
					return errIter(xdm.ErrType("argument $%s of %s does not match %s",
						decl.Params[i].Name, decl.Name, *decl.Params[i].Type))
				}
				val = MaterializedSeq(seq)
			}
			f2 = f2.bind(uf.paramIDs[i], val)
		}
		if uf.body == nil {
			return errIter(fmt.Errorf("function %s used before its body was compiled", decl.Name))
		}
		return uf.body(f2)
	}, nil
}

// compileMemoizedCall evaluates a pure user function with per-execution
// result caching. Arguments are materialized to build the cache key; calls
// with node arguments bypass the cache.
func (c *compiler) compileMemoizedCall(n *expr.Call, uf *userFunc, argFns []seqFn) seqFn {
	fkey := funcKey(n.Name, len(n.Args))
	decl := uf.decl
	return func(fr *Frame) Iter {
		args := make([]xdm.Sequence, len(argFns))
		for i, afn := range argFns {
			seq, err := drain(fr.dyn, afn(fr))
			if err != nil {
				return errIter(err)
			}
			args[i] = seq
		}
		key, cachable := memoKey(fkey, args)
		if cachable {
			if hit, ok := fr.dyn.base().memo.get(key); ok {
				fr.dyn.Prof.addMemoHit()
				return newSliceIter(hit)
			}
			fr.dyn.Prof.addMemoMiss()
		}
		f2 := fr.barrier()
		for i := range args {
			if decl.Params[i].Type != nil && !decl.Params[i].Type.Matches(args[i]) {
				return errIter(xdm.ErrType("argument $%s of %s does not match %s",
					decl.Params[i].Name, decl.Name, *decl.Params[i].Type))
			}
			f2 = f2.bind(uf.paramIDs[i], MaterializedSeq(args[i]))
		}
		if uf.body == nil {
			return errIter(fmt.Errorf("function %s used before its body was compiled", decl.Name))
		}
		out, err := drain(fr.dyn, uf.body(f2))
		if err != nil {
			return errIter(err)
		}
		if cachable {
			fr.dyn.base().memo.put(key, out)
		}
		return newSliceIter(out)
	}
}
