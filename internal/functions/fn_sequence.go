package functions

import (
	"math"

	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Sequence functions: fn:count, empty, exists, distinct-values, index-of,
// insert-before, remove, reverse, subsequence, unordered, zero-or-one,
// one-or-more, exactly-one, deep-equal, plus the aggregates.

func init() {
	detStructBoolean := Properties{Deterministic: true, Args: structure, Returns: xsBoolean}
	passed := Properties{Deterministic: true, Args: []ArgUse{PassedThrough}}
	checked := Properties{Deterministic: true, CanRaiseError: true, Args: []ArgUse{CheckedThrough}}

	register(&Func{Name: "count", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, Args: structure, Returns: xsInteger},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(xdm.NewInteger(int64(len(args[0])))), nil
		}})

	register(&Func{Name: "empty", MinArgs: 1, MaxArgs: 1, Props: detStructBoolean,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(xdm.NewBoolean(len(args[0]) == 0)), nil
		}})

	register(&Func{Name: "exists", MinArgs: 1, MaxArgs: 1, Props: detStructBoolean,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(xdm.NewBoolean(len(args[0]) != 0)), nil
		}})

	register(&Func{Name: "distinct-values", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, CanRaiseError: true, Returns: xtypes.AtomicStar(xdm.TAnyAtomic)},
		Call:  foldCall("distinct-values")})

	// fn:distinct-nodes from the paper's F&O draft: dedup by node identity,
	// document order.
	register(&Func{Name: "distinct-nodes", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, CanRaiseError: true, Args: []ArgUse{PassedThrough}},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return xdm.SortDocOrderDedup(append(xdm.Sequence(nil), args[0]...))
		}})

	register(&Func{Name: "index-of", MinArgs: 2, MaxArgs: 2,
		Props: Properties{Deterministic: true, CanRaiseError: true},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			target, ok, err := oneAtomic(args[1])
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, typeErr("fn:index-of: search value is the empty sequence")
			}
			var out xdm.Sequence
			for i, it := range args[0] {
				eq, err := xdm.GeneralCompareItems(xdm.OpEq, xdm.Atomize(it), target)
				if err == nil && eq {
					out = append(out, xdm.NewInteger(int64(i+1)))
				}
			}
			return out, nil
		}})

	register(&Func{Name: "insert-before", MinArgs: 3, MaxArgs: 3,
		Props: Properties{Deterministic: true, Args: []ArgUse{PassedThrough, Atomized, PassedThrough}},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			posA, ok, err := oneAtomic(args[1])
			if err != nil || !ok {
				return nil, typeErr("fn:insert-before: position required")
			}
			pos := int(posA.AsInt())
			if pos < 1 {
				pos = 1
			}
			if pos > len(args[0])+1 {
				pos = len(args[0]) + 1
			}
			out := make(xdm.Sequence, 0, len(args[0])+len(args[2]))
			out = append(out, args[0][:pos-1]...)
			out = append(out, args[2]...)
			out = append(out, args[0][pos-1:]...)
			return out, nil
		}})

	register(&Func{Name: "remove", MinArgs: 2, MaxArgs: 2, Props: passed,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			posA, ok, err := oneAtomic(args[1])
			if err != nil || !ok {
				return nil, typeErr("fn:remove: position required")
			}
			pos := int(posA.AsInt())
			if pos < 1 || pos > len(args[0]) {
				return args[0], nil
			}
			out := make(xdm.Sequence, 0, len(args[0])-1)
			out = append(out, args[0][:pos-1]...)
			return append(out, args[0][pos:]...), nil
		}})

	register(&Func{Name: "reverse", MinArgs: 1, MaxArgs: 1, Props: passed,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			in := args[0]
			out := make(xdm.Sequence, len(in))
			for i, it := range in {
				out[len(in)-1-i] = it
			}
			return out, nil
		}})

	register(&Func{Name: "subsequence", MinArgs: 2, MaxArgs: 3, Props: passed,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			var bounds [2]xdm.Atomic
			for i, arg := range args[1:] {
				a, ok, err := oneAtomic(arg)
				if err == nil && !ok {
					err = typeErr("fn:subsequence: an empty sequence is no position")
				}
				if err != nil {
					return nil, err
				}
				bounds[i] = a
			}
			from, to, err := SubsequenceWindow(bounds[0], bounds[1], len(args) == 3)
			if err != nil || from > int64(len(args[0])) {
				return nil, err
			}
			return args[0][from-1 : min(to, int64(len(args[0])))], nil
		}})

	register(&Func{Name: "unordered", MinArgs: 1, MaxArgs: 1, Props: passed,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return args[0], nil
		}})

	register(&Func{Name: "zero-or-one", MinArgs: 1, MaxArgs: 1, Props: checked,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args[0]) > 1 {
				return nil, xdm.Errf("FORG0003", "fn:zero-or-one: %d items", len(args[0]))
			}
			return args[0], nil
		}})

	register(&Func{Name: "one-or-more", MinArgs: 1, MaxArgs: 1, Props: checked,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args[0]) == 0 {
				return nil, xdm.Errf("FORG0004", "fn:one-or-more: empty sequence")
			}
			return args[0], nil
		}})

	register(&Func{Name: "exactly-one", MinArgs: 1, MaxArgs: 1, Props: checked,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args[0]) != 1 {
				return nil, xdm.Errf("FORG0005", "fn:exactly-one: %d items", len(args[0]))
			}
			return args[0], nil
		}})

	register(&Func{Name: "deep-equal", MinArgs: 2, MaxArgs: 2,
		Props: Properties{Deterministic: true, Args: []ArgUse{Subtree, Subtree}, Returns: xsBoolean},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(xdm.NewBoolean(deepEqualSeq(args[0], args[1]))), nil
		}})

	// aggregates, each the loop of its Fold
	aggregate := Properties{Deterministic: true, CanRaiseError: true}
	register(&Func{Name: "sum", MinArgs: 1, MaxArgs: 2, Props: aggregate, Call: foldCall("sum")})
	register(&Func{Name: "avg", MinArgs: 1, MaxArgs: 1, Props: aggregate, Call: foldCall("avg")})
	register(&Func{Name: "max", MinArgs: 1, MaxArgs: 1, Props: aggregate, Call: foldCall("max")})
	register(&Func{Name: "min", MinArgs: 1, MaxArgs: 1, Props: aggregate, Call: foldCall("min")})
}

// deepEqualSeq implements fn:deep-equal over materialized sequences.
func deepEqualSeq(a, b xdm.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !deepEqualItem(a[i], b[i]) {
			return false
		}
	}
	return true
}

func deepEqualItem(x, y xdm.Item) bool {
	nx, okx := x.(xdm.Node)
	ny, oky := y.(xdm.Node)
	if okx != oky {
		return false
	}
	if !okx {
		return xdm.DeepEqualAtomic(x.(xdm.Atomic), y.(xdm.Atomic))
	}
	return deepEqualNode(nx, ny)
}

func deepEqualNode(a, b xdm.Node) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case xdm.TextNode, xdm.CommentNode:
		return a.StringValue() == b.StringValue()
	case xdm.PINode:
		return a.NodeName().Equal(b.NodeName()) && a.StringValue() == b.StringValue()
	case xdm.AttributeNode:
		return a.NodeName().Equal(b.NodeName()) && a.StringValue() == b.StringValue()
	case xdm.DocumentNode, xdm.ElementNode:
		if a.Kind() == xdm.ElementNode {
			if !a.NodeName().Equal(b.NodeName()) {
				return false
			}
			aa, ba := a.AttributesOf(), b.AttributesOf()
			if len(aa) != len(ba) {
				return false
			}
			for _, x := range aa {
				found := false
				for _, y := range ba {
					if x.NodeName().Equal(y.NodeName()) && x.StringValue() == y.StringValue() {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		ac := significantChildren(a)
		bc := significantChildren(b)
		if len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if !deepEqualNode(ac[i], bc[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// significantChildren drops comments and PIs, per fn:deep-equal.
func significantChildren(n xdm.Node) []xdm.Node {
	var out []xdm.Node
	for _, c := range n.ChildrenOf() {
		switch c.Kind() {
		case xdm.CommentNode, xdm.PINode:
		default:
			out = append(out, c)
		}
	}
	return out
}

// NoEnd is the last position of a window that runs to the end of its
// sequence: no sequence is that long.
const NoEnd = 1 << 62

// Window returns the positions p, counted from 1, with lo ≤ p < hi, as the
// integers from..to; to is NoEnd when the window has no end, and to < from
// when it is empty, as it is when a bound is NaN. Bounds need not be
// integers, and beyond ±NoEnd they saturate.
func Window(lo, hi float64) (from, to int64) {
	if !(lo < hi) {
		return 1, 0
	}
	lo, hi = max(math.Ceil(lo), 1), math.Ceil(hi)-1
	if hi >= NoEnd {
		hi = NoEnd
	}
	if lo > hi {
		return 1, 0
	}
	return int64(lo), int64(hi)
}

// SubsequenceWindow is the window fn:subsequence($s, start, length) keeps
// (F&O §15.1.10): the positions p with round(start) ≤ p < round(start) +
// round(length), without an end when hasLength is false. Both arguments
// are xs:double by function conversion: untyped atomics are cast, other
// numbers promoted, and any other type is err:XPTY0004.
func SubsequenceWindow(start, length xdm.Atomic, hasLength bool) (from, to int64, err error) {
	s, err := numericAtom(start)
	if err != nil {
		return 1, 0, err
	}
	lo, hi := roundHalfUp(s.AsFloat()), math.Inf(1)
	if hasLength {
		l, err := numericAtom(length)
		if err != nil {
			return 1, 0, err
		}
		hi = lo + roundHalfUp(l.AsFloat())
	}
	from, to = Window(lo, hi)
	return from, to, nil
}

// roundHalfUp is fn:round on a double: the nearest integer, the one
// toward positive infinity of two; NaN and the infinities are their own.
func roundHalfUp(f float64) float64 {
	r := math.Floor(f)
	if f-r >= 0.5 {
		r++
	}
	return r
}
