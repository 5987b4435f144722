package functions

import (
	"math"

	"xqgo/internal/xdm"
)

// Fold is the one accumulator of the aggregate built-ins fn:sum, fn:avg,
// fn:min, fn:max and fn:distinct-values. It takes one atomized value at a
// time, so a caller that produces the values one by one (the runtime walks
// a step chain, or pulls an iterator) never materializes the argument; the
// registry's Call is the same loop over a materialized sequence. The rules
// of F&O §15.4 live here once: an untyped value is an xs:double for the
// four aggregates (err:FORG0001 when it is not a number), a value of a type
// the aggregate does not take, or of a type that cannot meet the ones
// before it, is err:FORG0006, a NaN decides min and max, and min and max
// return their value in the common type of all the values taken.
type Fold struct {
	kind   foldKind
	n      int64        // values taken
	acc    xdm.Atomic   // sum and avg: the running sum; min and max: the extremum
	common xdm.TypeCode // min and max: the type the values promote to
	set    distinctSet
	out    xdm.Sequence // distinct-values: the first of each class of equal values
}

type foldKind uint8

const (
	foldSum foldKind = iota
	foldAvg
	foldMin
	foldMax
	foldDistinct
)

// NewFold returns the empty accumulator of the built-in named local;
// ok=false when that built-in is no fold.
func NewFold(local string) (f Fold, ok bool) {
	switch local {
	case "sum":
		return Fold{kind: foldSum}, true
	case "avg":
		return Fold{kind: foldAvg}, true
	case "min":
		return Fold{kind: foldMin}, true
	case "max":
		return Fold{kind: foldMax}, true
	case "distinct-values":
		return Fold{kind: foldDistinct}, true
	}
	return Fold{}, false
}

// Add takes one atomized value. done reports that no later value can
// change the result: a NaN in min or max, once the values promote to
// xs:double.
func (f *Fold) Add(a xdm.Atomic) (done bool, err error) {
	if f.kind == foldDistinct {
		if f.set.add(a) {
			f.out = append(f.out, a)
		}
		return false, nil
	}
	if a.T == xdm.TUntyped {
		if a, err = xdm.Cast(a, xdm.TDouble); err != nil {
			return false, err
		}
	}
	order := f.kind == foldMin || f.kind == foldMax
	if f.n == 0 || a.T != f.acc.T { // a value of the accumulator's type is in its class
		class, ok := aggregateClass(a.T, order)
		if prev, _ := aggregateClass(f.acc.T, order); !ok || f.n > 0 && class != prev {
			return false, xdm.Errf("FORG0006", "fn:%s: %s cannot be aggregated with the values before it", f.kind, a.T)
		}
	}
	switch f.n++; {
	case f.n == 1:
		f.acc, f.common = a, a.T
	case !order:
		f.acc, err = xdm.Arith(xdm.OpAdd, f.acc, a)
		return false, err
	case isNaN(f.acc):
		f.common = xdm.Promote(f.common, a.T)
	case isNaN(a):
		f.acc, f.common = a, xdm.Promote(f.common, a.T)
	default:
		f.common = xdm.Promote(f.common, a.T)
		c, _, err := xdm.OrderCompare(a, f.acc)
		if err != nil {
			return false, err
		}
		if c > 0 && f.kind == foldMax || c < 0 && f.kind == foldMin {
			f.acc = a
		}
	}
	return order && isNaN(f.acc) && f.common == xdm.TDouble, nil
}

// Result is the aggregate of the values taken. rest are the call's
// arguments after the first: fn:sum's zero, the result of an empty input
// in place of the integer 0.
func (f *Fold) Result(rest []xdm.Sequence) (xdm.Sequence, error) {
	switch {
	case f.kind == foldDistinct:
		return f.out, nil
	case f.n == 0 && f.kind != foldSum:
		return emptySeq, nil
	case f.n == 0 && len(rest) > 0:
		return rest[0], nil
	case f.n == 0:
		return singleton(xdm.NewInteger(0)), nil
	case f.kind == foldAvg:
		r, err := xdm.Arith(xdm.OpDiv, f.acc, xdm.NewInteger(f.n))
		if err != nil {
			return nil, err
		}
		return singleton(r), nil
	case f.kind != foldSum && f.acc.T != f.common:
		r, err := xdm.Cast(f.acc, f.common)
		if err != nil {
			return nil, err
		}
		return singleton(r), nil
	}
	return singleton(f.acc), nil
}

func (k foldKind) String() string {
	return [...]string{"sum", "avg", "min", "max", "distinct-values"}[k]
}

// foldCall is the registry Call of a folded built-in: the fold's loop over
// the materialized first argument.
func foldCall(local string) func(Context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		f, _ := NewFold(local)
		for _, it := range args[0] {
			done, err := f.Add(xdm.Atomize(it))
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
		return f.Result(args[1:])
	}
}

// aggregateClass is the class of values of type t that an aggregate can
// combine: every number is one class; sum and avg also take either
// duration subtype on its own; min and max take strings and anyURIs as one
// class, and the booleans, the date and time types and the two duration
// subtypes each on its own. ok=false for a type the aggregate does not
// take.
func aggregateClass(t xdm.TypeCode, order bool) (class xdm.TypeCode, ok bool) {
	switch t {
	case xdm.TInteger, xdm.TDecimal, xdm.TFloat, xdm.TDouble:
		return xdm.TDouble, true
	case xdm.TYearMonthDuration, xdm.TDayTimeDuration:
		return t, true
	case xdm.TString, xdm.TAnyURI:
		return xdm.TString, order
	case xdm.TBoolean, xdm.TDateTime, xdm.TDate, xdm.TTime:
		return t, order
	}
	return t, false
}

func isNaN(a xdm.Atomic) bool { return a.T.IsNumeric() && math.IsNaN(a.AsFloat()) }

// distinctSet is the set of values distinct-values has kept, under eq with
// numeric promotion and NaN equal to itself: strings, untyped atomics and
// anyURIs by their text, which is kept without a copy; numbers with an
// integer value by int64, so integers beyond 2^53 stay apart; other numbers
// by float64; any other type by eq against the values of that kind kept.
type distinctSet struct {
	strs  map[string]struct{}
	ints  map[int64]struct{}
	nums  map[float64]struct{}
	nan   bool
	other []xdm.Atomic
}

// add keeps a and reports whether it is new.
func (s *distinctSet) add(a xdm.Atomic) bool {
	switch {
	case a.T == xdm.TString || a.T == xdm.TUntyped || a.T == xdm.TAnyURI:
		return addKey(&s.strs, a.S)
	case isNaN(a):
		if s.nan {
			return false
		}
		s.nan = true
		return true
	case a.T.IsNumeric():
		if i, ok := a.Integral(); ok {
			return addKey(&s.ints, i)
		}
		return addKey(&s.nums, a.AsFloat())
	}
	for _, o := range s.other {
		if eq, err := xdm.ValueCompare(xdm.OpEq, o, a); err == nil && eq {
			return false
		}
	}
	s.other = append(s.other, a)
	return true
}

func addKey[K comparable](m *map[K]struct{}, k K) bool {
	if _, dup := (*m)[k]; dup {
		return false
	}
	if *m == nil {
		*m = map[K]struct{}{}
	}
	(*m)[k] = struct{}{}
	return true
}
