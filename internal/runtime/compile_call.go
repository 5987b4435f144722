package runtime

import (
	"fmt"

	"xqgo/internal/expr"
	"xqgo/internal/functions"
	"xqgo/internal/xdm"
)

// Function calls. Built-ins receive materialized arguments, except for a
// short list of sequence predicates that the compiler wires to the lazy
// iterator protocol directly (fn:empty pulls one item, fn:count never
// materializes, ...) — the lazy-evaluation payoffs of E3.

const (
	fnNS  = "http://www.w3.org/2005/xpath-functions"
	xsNS  = "http://www.w3.org/2001/XMLSchema"
	xdtNS = "http://www.w3.org/2005/xpath-datatypes"
)

func (c *compiler) compileCall(n *expr.Call) (seqFn, error) {
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
	// Constructor functions: xs:integer("42") etc. behave as "cast as T?".
	if n.Name.Space == xsNS || n.Name.Space == xdtNS {
		prefix := "xs:"
		if n.Name.Space == xdtNS {
			prefix = "xdt:"
		}
		tc, known := xdm.TypeByName(prefix + n.Name.Local)
		if !known || len(n.Args) != 1 {
			return nil, fmt.Errorf("%d:%d: unknown constructor function %s/%d",
				n.Span().Line, n.Span().Col, n.Name, len(n.Args))
		}
		return c.compileRaw(&expr.Cast{
			Base: expr.Base{P: n.Span()}, X: n.Args[0], T: tc, Optional: true,
		})
	}
	if n.Name.Space != fnNS && n.Name.Space != "" {
		return nil, fmt.Errorf("%d:%d: unknown function %s/%d",
			n.Span().Line, n.Span().Col, n.Name, len(n.Args))
	}
	local := n.Name.Local

	argFns := make([]seqFn, len(n.Args))
	for i, a := range n.Args {
		fn, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		argFns[i] = fn
	}

	// Lazy special forms.
	if fn, handled, err := c.lazyBuiltin(local, argFns); handled {
		return fn, err
	}

	// fn:position and fn:last read the focus.
	switch local {
	case "position":
		if len(argFns) != 0 {
			return nil, fmt.Errorf("fn:position takes no arguments")
		}
		return func(fr *Frame) Iter {
			if _, ok := fr.ContextItem(); !ok {
				return errIter(xdm.Errf("XPDY0002", "fn:position(): no context"))
			}
			return singleIter(xdm.NewInteger(fr.Position()))
		}, nil
	case "last":
		if len(argFns) != 0 {
			return nil, fmt.Errorf("fn:last takes no arguments")
		}
		return func(fr *Frame) Iter {
			n, err := fr.Size()
			if err != nil {
				return errIter(err)
			}
			return singleIter(xdm.NewInteger(n))
		}, nil
	}

	f, err := functions.Lookup(local, len(n.Args))
	if err != nil {
		return nil, fmt.Errorf("%d:%d: %v", n.Span().Line, n.Span().Col, err)
	}
	if f == nil {
		return nil, fmt.Errorf("%d:%d: unknown function fn:%s",
			n.Span().Line, n.Span().Col, local)
	}
	return func(fr *Frame) Iter {
		args := make([]xdm.Sequence, len(argFns))
		for i, afn := range argFns {
			seq, err := drainBatched(fr.dyn, afn(fr))
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

// lazyBuiltin wires the sequence predicates that benefit from lazy inputs.
func (c *compiler) lazyBuiltin(local string, argFns []seqFn) (seqFn, bool, error) {
	switch local {
	case "empty", "exists":
		if len(argFns) != 1 {
			return nil, true, fmt.Errorf("fn:%s expects 1 argument", local)
		}
		wantEmpty := local == "empty"
		return func(fr *Frame) Iter {
			_, ok, err := argFns[0](fr).Next() // pull exactly one item
			if err != nil {
				return errIter(err)
			}
			return singleIter(xdm.NewBoolean(ok == !wantEmpty))
		}, true, nil
	case "count":
		if len(argFns) != 1 {
			return nil, true, fmt.Errorf("fn:count expects 1 argument")
		}
		// Batched counting: the input is drained a chunk at a time without
		// ever materializing it; a source that knows its cardinality
		// (range, materialized slice) skips production entirely.
		return func(fr *Frame) Iter {
			it := argFns[0](fr)
			if sz, ok := it.(sizedIter); ok {
				if n, known := sz.remaining(); known {
					return singleIter(xdm.NewInteger(n))
				}
			}
			buf := fr.dyn.getBuf()
			n := int64(0)
			for {
				k, err := nextBatch(it, buf)
				if err != nil {
					fr.dyn.putBuf(buf)
					return errIter(err)
				}
				if k == 0 {
					fr.dyn.putBuf(buf)
					return singleIter(xdm.NewInteger(n))
				}
				n += int64(k)
			}
		}, true, nil
	case "not", "boolean":
		if len(argFns) != 1 {
			return nil, true, fmt.Errorf("fn:%s expects 1 argument", local)
		}
		negate := local == "not"
		return func(fr *Frame) Iter {
			b, err := ebvOf(argFns[0](fr))
			if err != nil {
				return errIter(err)
			}
			return singleIter(xdm.NewBoolean(b != negate))
		}, true, nil
	case "subsequence":
		if len(argFns) < 2 || len(argFns) > 3 {
			return nil, true, fmt.Errorf("fn:subsequence expects 2..3 arguments")
		}
		return func(fr *Frame) Iter {
			start, okS, err := atomizeSingle(argFns[1](fr))
			if err != nil || !okS {
				return errIter(xdm.ErrType("fn:subsequence: start required"))
			}
			from := int64(start.AsFloat() + 0.5)
			to := int64(1<<62 - 1)
			if len(argFns) == 3 {
				length, okL, err := atomizeSingle(argFns[2](fr))
				if err != nil || !okL {
					return errIter(xdm.ErrType("fn:subsequence: bad length"))
				}
				to = from + int64(length.AsFloat()+0.5) - 1
			}
			src := argFns[0](fr)
			pos := int64(0)
			return iterFunc(func() (xdm.Item, bool, error) {
				for {
					it, ok, err := src.Next()
					if err != nil || !ok {
						return nil, false, err
					}
					pos++
					if pos > to {
						return nil, false, nil // early exit
					}
					if pos >= from {
						return it, true, nil
					}
				}
			})
		}, true, nil
	case "unordered":
		if len(argFns) != 1 {
			return nil, true, fmt.Errorf("fn:unordered expects 1 argument")
		}
		fn := argFns[0]
		return func(fr *Frame) Iter { return fn(fr) }, true, nil
	}
	return nil, false, nil
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
			seq, err := drainBatched(fr.dyn, afn(fr))
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
		out, err := drainBatched(fr.dyn, uf.body(f2))
		if err != nil {
			return errIter(err)
		}
		if cachable {
			fr.dyn.base().memo.put(key, out)
		}
		return newSliceIter(out)
	}
}
