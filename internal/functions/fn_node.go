package functions

import (
	"fmt"
	"math"
	"math/big"
	"os"
	"time"

	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Node, boolean, numeric, date and diagnostic functions.

func init() {
	det := Properties{Deterministic: true}
	detErr := Properties{Deterministic: true, CanRaiseError: true}
	detBoolean := Properties{Deterministic: true, Returns: xsBoolean}
	detStructBoolean := Properties{Deterministic: true, Args: structure, Returns: xsBoolean}
	// The accessors read a node's name or URI, not its content.
	accessor := Properties{Deterministic: true, UsesContext: true, Args: structure}
	nameAccessor := Properties{Deterministic: true, UsesContext: true, Args: structure, Returns: xsString}

	// ---- booleans ----
	register(&Func{Name: "true", MinArgs: 0, MaxArgs: 0, Props: detBoolean,
		Call: func(_ Context, _ []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(xdm.True), nil
		}})
	register(&Func{Name: "false", MinArgs: 0, MaxArgs: 0, Props: detBoolean,
		Call: func(_ Context, _ []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(xdm.False), nil
		}})
	register(&Func{Name: "not", MinArgs: 1, MaxArgs: 1, Props: detStructBoolean,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			b, err := xdm.EffectiveBoolean(args[0])
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewBoolean(!b)), nil
		}})
	register(&Func{Name: "boolean", MinArgs: 1, MaxArgs: 1, Props: detStructBoolean,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			b, err := xdm.EffectiveBoolean(args[0])
			if err != nil {
				return nil, err
			}
			return singleton(xdm.NewBoolean(b)), nil
		}})

	// ---- accessors ----
	register(&Func{Name: "data", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, Returns: xtypes.AtomicStar(xdm.TAnyAtomic)},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			out := make(xdm.Sequence, len(args[0]))
			for i, it := range args[0] {
				out[i] = xdm.Atomize(it)
			}
			return out, nil
		}})
	register(&Func{Name: "node-name", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, Args: structure},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := oneNode(args[0])
			if err != nil || n == nil {
				return emptySeq, err
			}
			if n.NodeName().IsZero() {
				return emptySeq, nil
			}
			return singleton(xdm.NewQName(n.NodeName())), nil
		}})
	register(&Func{Name: "name", MinArgs: 0, MaxArgs: 1, Props: nameAccessor,
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := nodeArgOrContext(ctx, args)
			if err != nil || n == nil {
				return singleton(xdm.NewString("")), err
			}
			return singleton(xdm.NewString(lexicalName(n.NodeName()))), nil
		}})
	register(&Func{Name: "local-name", MinArgs: 0, MaxArgs: 1, Props: nameAccessor,
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := nodeArgOrContext(ctx, args)
			if err != nil || n == nil {
				return singleton(xdm.NewString("")), err
			}
			return singleton(xdm.NewString(n.NodeName().Local)), nil
		}})
	register(&Func{Name: "namespace-uri", MinArgs: 0, MaxArgs: 1, Props: accessor,
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := nodeArgOrContext(ctx, args)
			if err != nil || n == nil {
				return singleton(xdm.NewAnyURI("")), err
			}
			return singleton(xdm.NewAnyURI(n.NodeName().Space)), nil
		}})
	register(&Func{Name: "root", MinArgs: 0, MaxArgs: 1,
		Props: Properties{Deterministic: true, UsesContext: true, Args: structure, Reach: ReachRoot},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := nodeArgOrContext(ctx, args)
			if err != nil || n == nil {
				return emptySeq, err
			}
			r := n
			for p := r.Parent(); p != nil; p = p.Parent() {
				r = p
			}
			return xdm.Sequence{r}, nil
		}})
	register(&Func{Name: "base-uri", MinArgs: 0, MaxArgs: 1,
		Props: Properties{Deterministic: true, UsesContext: true, Args: structure, Reach: ReachOutside},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := nodeArgOrContext(ctx, args)
			if err != nil || n == nil {
				return emptySeq, err
			}
			if n.BaseURI() == "" {
				return emptySeq, nil
			}
			return singleton(xdm.NewAnyURI(n.BaseURI())), nil
		}})
	register(&Func{Name: "document-uri", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, Args: structure, Reach: ReachOutside},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, err := oneNode(args[0])
			if err != nil || n == nil {
				return emptySeq, err
			}
			if n.Kind() != xdm.DocumentNode || n.BaseURI() == "" {
				return emptySeq, nil
			}
			return singleton(xdm.NewAnyURI(n.BaseURI())), nil
		}})

	// ---- documents ----
	docProps := Properties{Deterministic: true, CanRaiseError: true, Reach: ReachRoot,
		Returns: xtypes.SequenceType{Occ: xtypes.OccOpt, Item: xtypes.ItemType{Kind: xtypes.KDocument}}}
	docCall := func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) == 0 {
			return emptySeq, nil
		}
		uri, err := oneString(args[0])
		if err != nil {
			return nil, err
		}
		n, err := ctx.Doc(uri)
		if err != nil {
			return nil, err
		}
		return xdm.Sequence{n}, nil
	}
	register(&Func{Name: "doc", MinArgs: 1, MaxArgs: 1, Props: docProps, Call: docCall})
	// The paper (and XQuery 1.0 working drafts) use document(); keep both.
	register(&Func{Name: "document", MinArgs: 1, MaxArgs: 1, Props: docProps, Call: docCall})
	register(&Func{Name: "collection", MinArgs: 1, MaxArgs: 1,
		Props: Properties{Deterministic: true, CanRaiseError: true, Reach: ReachOutside},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			uri, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			return ctx.Collection(uri)
		}})

	// ---- numerics ----
	register(&Func{Name: "number", MinArgs: 0, MaxArgs: 1,
		Props: Properties{Deterministic: true, UsesContext: true, Returns: xtypes.AtomicOne(xdm.TDouble)},
		Call: func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
			var a xdm.Atomic
			if len(args) == 0 {
				it, ok := ctx.ContextItem()
				if !ok {
					return nil, xdm.Errf("XPDY0002", "fn:number(): no context item")
				}
				a = xdm.Atomize(it)
			} else {
				var ok bool
				var err error
				a, ok, err = oneAtomic(args[0])
				if err != nil {
					return nil, err
				}
				if !ok {
					return singleton(xdm.NewDouble(nan())), nil
				}
			}
			d, err := xdm.Cast(a, xdm.TDouble)
			if err != nil {
				return singleton(xdm.NewDouble(nan())), nil
			}
			return singleton(d), nil
		}})
	register(&Func{Name: "abs", MinArgs: 1, MaxArgs: 1, Props: detErr,
		Call: numericUnary(func(f float64) float64 {
			if f < 0 {
				return -f
			}
			if f == 0 {
				return 0 // fn:abs(-0.0e0) is positive zero per F&O
			}
			return f
		}, func(i int64) int64 {
			if i < 0 {
				return -i
			}
			return i
		})})
	register(&Func{Name: "floor", MinArgs: 1, MaxArgs: 1, Props: detErr,
		Call: numericUnary(math.Floor, intSelf)})
	register(&Func{Name: "ceiling", MinArgs: 1, MaxArgs: 1, Props: detErr,
		Call: numericUnary(math.Ceil, intSelf)})
	register(&Func{Name: "round", MinArgs: 1, MaxArgs: 1, Props: detErr,
		Call: numericUnary(roundHalfUp, intSelf)})
	register(&Func{Name: "round-half-to-even", MinArgs: 1, MaxArgs: 2, Props: detErr,
		Call: roundHalfToEven})

	// ---- dates ----
	register(&Func{Name: "current-dateTime", MinArgs: 0, MaxArgs: 0,
		Props: Properties{Deterministic: false},
		Call: func(ctx Context, _ []xdm.Sequence) (xdm.Sequence, error) {
			return singleton(ctx.CurrentDateTime()), nil
		}})
	register(&Func{Name: "current-date", MinArgs: 0, MaxArgs: 0,
		Props: Properties{Deterministic: false},
		Call: func(ctx Context, _ []xdm.Sequence) (xdm.Sequence, error) {
			d, err := xdm.Cast(ctx.CurrentDateTime(), xdm.TDate)
			if err != nil {
				return nil, err
			}
			return singleton(d), nil
		}})
	register(&Func{Name: "current-time", MinArgs: 0, MaxArgs: 0,
		Props: Properties{Deterministic: false},
		Call: func(ctx Context, _ []xdm.Sequence) (xdm.Sequence, error) {
			d, err := xdm.Cast(ctx.CurrentDateTime(), xdm.TTime)
			if err != nil {
				return nil, err
			}
			return singleton(d), nil
		}})
	// The paper's sampler: date("2002-5-20") constructor and add-date.
	register(&Func{Name: "date", MinArgs: 1, MaxArgs: 1, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			s, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			d, err := xdm.Cast(xdm.NewString(s), xdm.TDate)
			if err != nil {
				return nil, err
			}
			return singleton(d), nil
		}})
	register(&Func{Name: "add-date", MinArgs: 2, MaxArgs: 2, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			d, ok, err := oneAtomic(args[0])
			if err != nil || !ok {
				return emptySeq, err
			}
			dur, ok, err := oneAtomic(args[1])
			if err != nil || !ok {
				return emptySeq, err
			}
			r, err := xdm.Arith(xdm.OpAdd, d, dur)
			if err != nil {
				return nil, err
			}
			return singleton(r), nil
		}})
	for _, comp := range []struct {
		name string
		from xdm.TypeCode
		get  func(t time.Time) int64
	}{
		{"year-from-dateTime", xdm.TDateTime, func(t time.Time) int64 { return int64(t.Year()) }},
		{"month-from-dateTime", xdm.TDateTime, func(t time.Time) int64 { return int64(t.Month()) }},
		{"day-from-dateTime", xdm.TDateTime, func(t time.Time) int64 { return int64(t.Day()) }},
		{"hours-from-dateTime", xdm.TDateTime, func(t time.Time) int64 { return int64(t.Hour()) }},
		{"minutes-from-dateTime", xdm.TDateTime, func(t time.Time) int64 { return int64(t.Minute()) }},
		{"year-from-date", xdm.TDate, func(t time.Time) int64 { return int64(t.Year()) }},
		{"month-from-date", xdm.TDate, func(t time.Time) int64 { return int64(t.Month()) }},
		{"day-from-date", xdm.TDate, func(t time.Time) int64 { return int64(t.Day()) }},
	} {
		comp := comp
		register(&Func{Name: comp.name, MinArgs: 1, MaxArgs: 1, Props: detErr,
			Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
				a, ok, err := oneAtomic(args[0])
				if err != nil || !ok {
					return emptySeq, err
				}
				if a.T != comp.from {
					if a, err = xdm.Cast(a, comp.from); err != nil {
						return nil, err
					}
				}
				t := time.Unix(0, a.Int()).UTC()
				return singleton(xdm.NewInteger(comp.get(t))), nil
			}})
	}

	// ---- QName helpers ----
	register(&Func{Name: "QName", MinArgs: 2, MaxArgs: 2, Props: detErr,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			uri, err := oneString(args[0])
			if err != nil {
				return nil, err
			}
			lex, err := oneString(args[1])
			if err != nil {
				return nil, err
			}
			prefix, local := xdm.SplitLexical(lex)
			return singleton(xdm.NewQName(xdm.QName{Space: uri, Local: local, Prefix: prefix})), nil
		}})
	register(&Func{Name: "local-name-from-QName", MinArgs: 1, MaxArgs: 1, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			a, ok, err := oneAtomic(args[0])
			if err != nil || !ok {
				return emptySeq, err
			}
			return singleton(xdm.NewString(a.QName().Local)), nil
		}})
	register(&Func{Name: "namespace-uri-from-QName", MinArgs: 1, MaxArgs: 1, Props: det,
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			a, ok, err := oneAtomic(args[0])
			if err != nil || !ok {
				return emptySeq, err
			}
			return singleton(xdm.NewAnyURI(a.QName().Space)), nil
		}})

	// ---- diagnostics ----
	// Deterministic: a function that calls fn:error stays memoizable, and
	// CanRaiseError keeps it out of constant folding.
	register(&Func{Name: "error", MinArgs: 0, MaxArgs: 2,
		Props: Properties{Deterministic: true, CanRaiseError: true},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			code := "FOER0000"
			msg := "error signalled by fn:error()"
			if len(args) > 0 && len(args[0]) > 0 {
				code = xdm.StringValue(args[0][0])
			}
			if len(args) > 1 {
				s, err := oneString(args[1])
				if err == nil && s != "" {
					msg = s
				}
			}
			return nil, xdm.Errf(code, "%s", msg)
		}})
	register(&Func{Name: "trace", MinArgs: 2, MaxArgs: 2,
		Props: Properties{Args: []ArgUse{PassedThrough}},
		Call: func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			label, _ := oneString(args[1])
			fmt.Fprintf(os.Stderr, "trace: %s: %d item(s)\n", label, len(args[0]))
			return args[0], nil
		}})
}

func nodeArgOrContext(ctx Context, args []xdm.Sequence) (xdm.Node, error) {
	if len(args) == 0 {
		it, ok := ctx.ContextItem()
		if !ok {
			return nil, xdm.Errf("XPDY0002", "no context item")
		}
		n, isNode := it.(xdm.Node)
		if !isNode {
			return nil, typeErr("context item is not a node")
		}
		return n, nil
	}
	return oneNode(args[0])
}

// numericUnary applies a numeric function in its argument's type family:
// onInt to an xs:integer, which a double holds exactly only up to 2^53, and
// f to the other numeric types.
func numericUnary(f func(float64) float64, onInt func(int64) int64) func(Context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, ok, err := numericArg(args[0])
		if err != nil || !ok {
			return emptySeq, err
		}
		if a.T == xdm.TInteger {
			return singleton(xdm.NewInteger(onInt(a.Int()))), nil
		}
		return singleton(retypeNumeric(a, f(a.AsFloat()))), nil
	}
}

// roundHalfToEven is fn:round-half-to-even (F&O §6.4.5): the multiple of
// 10^-precision nearest the argument, the even one of two. An integer or an
// exact decimal is rounded on its scaled digits; a double or float on its
// exact binary value, so 2.675e0, which is 2.67499999…, rounds to 2.67
// where the decimal 2.675 rounds to 2.68.
func roundHalfToEven(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args) == 1 {
		return numericUnary(math.RoundToEven, intSelf)(ctx, args)
	}
	a, ok, err := numericArg(args[0])
	if err != nil || !ok {
		return emptySeq, err
	}
	pa, ok, err := oneAtomic(args[1])
	if err == nil && ok && pa.T == xdm.TUntyped {
		pa, err = xdm.Cast(pa, xdm.TInteger)
	}
	if err != nil {
		return nil, err
	}
	if !ok || pa.T != xdm.TInteger {
		return nil, typeErr("fn:round-half-to-even: the precision must be one xs:integer")
	}
	p := pa.Int()
	if r, ok := xdm.RoundScaled(a, p); ok {
		return singleton(r), nil
	}
	f := roundFloatAt(a.AsFloat(), p)
	if a.T != xdm.TInteger {
		return singleton(retypeNumeric(a, f)), nil
	}
	if !(f >= -(1<<63) && f < 1<<63) {
		return nil, xdm.ErrOverflow()
	}
	return singleton(xdm.NewInteger(int64(f))), nil
}

// roundFloatAt rounds a double half to even at precision p, on its exact
// binary value. A double has at most 1 074 fraction digits and no more than
// 309 integer digits, which bounds the precisions that change anything.
func roundFloatAt(f float64, p int64) float64 {
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0) || f == 0 || p > 1074:
		return f
	case p < -309:
		return math.Copysign(0, f)
	}
	x := new(big.Rat).SetFloat64(f)
	scale := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(max(p, -p)), nil))
	if p >= 0 {
		x.Mul(x, scale)
	} else {
		x.Quo(x, scale)
	}
	q, r := new(big.Int).QuoRem(x.Num(), x.Denom(), new(big.Int))
	r.Lsh(r.Abs(r), 1)
	if c := r.Cmp(x.Denom()); c > 0 || c == 0 && q.Bit(0) == 1 {
		q.Add(q, big.NewInt(int64(x.Sign())))
	}
	x.SetInt(q)
	if p >= 0 {
		x.Quo(x, scale)
	} else {
		x.Mul(x, scale)
	}
	if v, _ := x.Float64(); v != 0 {
		return v
	}
	return math.Copysign(0, f)
}

// intSelf is the floor, ceiling and rounding of an xs:integer.
func intSelf(i int64) int64 { return i }

// retypeNumeric rebuilds a non-integer numeric result in the type family of
// the input.
func retypeNumeric(in xdm.Atomic, f float64) xdm.Atomic {
	switch in.T {
	case xdm.TDecimal:
		if f == 0 {
			f = 0 // a decimal has no negative zero: ceiling(-0.3) is 0
		}
		return xdm.NewDecimalFloat(f)
	case xdm.TFloat:
		return xdm.NewFloat(f)
	default:
		return xdm.NewDouble(f)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// lexicalName renders a node name the way fn:name reports it: Prefix:Local,
// or Local alone when the name has no prefix (in no namespace, or in the
// default one).
func lexicalName(q xdm.QName) string {
	if q.Prefix == "" {
		return q.Local
	}
	return q.Prefix + ":" + q.Local
}
