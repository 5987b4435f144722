package functions

import (
	"math"
	"sort"

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
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return distinctValues(args[0])
		}})

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

	// aggregates
	register(&Func{Name: "sum", MinArgs: 1, MaxArgs: 2,
		Props: Properties{Deterministic: true, CanRaiseError: true},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args[0]) == 0 {
				if len(args) == 2 {
					return args[1], nil
				}
				return singleton(xdm.NewInteger(0)), nil
			}
			return aggregate(args[0], false)
		}})

	register(&Func{Name: "avg", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, CanRaiseError: true},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if len(args[0]) == 0 {
				return emptySeq, nil
			}
			sum, err := aggregate(args[0], false)
			if err != nil {
				return nil, err
			}
			a := sum[0].(xdm.Atomic)
			r, err := xdm.Arith(xdm.OpDiv, a, xdm.NewInteger(int64(len(args[0]))))
			if err != nil {
				return nil, err
			}
			return singleton(r), nil
		}})

	register(&Func{Name: "max", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, CanRaiseError: true},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return extremum(args[0], true)
		}})

	register(&Func{Name: "min", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, CanRaiseError: true},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return extremum(args[0], false)
		}})
}

// distinctValues deduplicates atomized values by the eq relation (with type
// promotion); NaN equals NaN for this purpose.
func distinctValues(in xdm.Sequence) (xdm.Sequence, error) {
	var out xdm.Sequence
	seenStrings := map[string]bool{}
	var seenNums []float64
	var seenOther []xdm.Atomic
	sawNaN := false
	for _, it := range in {
		a := xdm.Atomize(it)
		switch {
		case a.T.IsNumeric():
			f := a.AsFloat()
			if math.IsNaN(f) {
				if !sawNaN {
					sawNaN = true
					out = append(out, a)
				}
				continue
			}
			idx := sort.SearchFloat64s(seenNums, f)
			if idx < len(seenNums) && seenNums[idx] == f {
				continue
			}
			seenNums = append(seenNums, 0)
			copy(seenNums[idx+1:], seenNums[idx:])
			seenNums[idx] = f
			out = append(out, a)
		case a.T == xdm.TString || a.T == xdm.TUntyped || a.T == xdm.TAnyURI:
			if seenStrings[a.S] {
				continue
			}
			seenStrings[a.S] = true
			out = append(out, a)
		default:
			dup := false
			for _, s := range seenOther {
				if eq, err := xdm.ValueCompare(xdm.OpEq, s, a); err == nil && eq {
					dup = true
					break
				}
			}
			if !dup {
				seenOther = append(seenOther, a)
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// aggregate sums a sequence with promotion; untyped values cast to double.
func aggregate(in xdm.Sequence, _ bool) (xdm.Sequence, error) {
	acc := xdm.Atomize(in[0])
	var err error
	if acc.T == xdm.TUntyped {
		if acc, err = xdm.Cast(acc, xdm.TDouble); err != nil {
			return nil, err
		}
	}
	for _, it := range in[1:] {
		a := xdm.Atomize(it)
		if acc, err = xdm.Arith(xdm.OpAdd, acc, a); err != nil {
			return nil, err
		}
	}
	return singleton(acc), nil
}

func extremum(in xdm.Sequence, wantMax bool) (xdm.Sequence, error) {
	if len(in) == 0 {
		return emptySeq, nil
	}
	best := xdm.Atomize(in[0])
	var err error
	if best.T == xdm.TUntyped {
		if best, err = xdm.Cast(best, xdm.TDouble); err != nil {
			return nil, err
		}
	}
	for _, it := range in[1:] {
		a := xdm.Atomize(it)
		if a.T == xdm.TUntyped {
			if a, err = xdm.Cast(a, xdm.TDouble); err != nil {
				return nil, err
			}
		}
		// NaN contaminates.
		if a.T.IsNumeric() && math.IsNaN(a.AsFloat()) {
			return singleton(a), nil
		}
		c, nan, err := xdm.OrderCompare(a, best)
		if err != nil {
			return nil, err
		}
		if nan {
			return singleton(a), nil
		}
		if (wantMax && c > 0) || (!wantMax && c < 0) {
			best = a
		}
	}
	return singleton(best), nil
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
