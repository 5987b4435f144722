package xdm

import (
	"math"
	"strings"
)

// CompOp is a comparison operator shared by value and general comparisons.
type CompOp uint8

const (
	OpEq CompOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var compOpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (op CompOp) String() string { return compOpNames[op] }

// Negate returns the operator giving the complementary truth value. Note the
// paper's warning that fn:not($x = $y) is NOT equivalent to $x != $y for
// general comparisons (existential semantics) — Negate is only valid for
// value comparisons on single items.
func (op CompOp) Negate() CompOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	default:
		return OpLt
	}
}

// ValueCompare implements the value comparisons (eq, ne, lt, ...) between two
// single atomic values. Untyped operands are treated as xs:string, per the
// value-comparison rule. Returns a type error for incomparable types.
func ValueCompare(op CompOp, a, b Atomic) (bool, error) {
	if a.T == TUntyped {
		a = NewString(a.S)
	}
	if b.T == TUntyped {
		b = NewString(b.S)
	}
	return typedCompare(op, a, b)
}

// GeneralCompareItems applies the general-comparison casting rules to a pair
// of atomized operands: untyped vs numeric casts untyped to xs:double;
// untyped vs untyped/string compares as strings; untyped vs anything else
// casts untyped to the other's type.
func GeneralCompareItems(op CompOp, a, b Atomic) (bool, error) {
	var err error
	switch {
	case a.T == TUntyped && b.T == TUntyped:
		a, b = NewString(a.S), NewString(b.S)
	case a.T == TUntyped:
		a, err = castUntypedFor(a, b.T)
		if err != nil {
			return false, err
		}
	case b.T == TUntyped:
		b, err = castUntypedFor(b, a.T)
		if err != nil {
			return false, err
		}
	}
	return typedCompare(op, a, b)
}

func castUntypedFor(u Atomic, other TypeCode) (Atomic, error) {
	switch {
	case other.IsNumeric():
		return Cast(u, TDouble)
	case other == TString || other == TAnyURI:
		return NewString(u.S), nil
	default:
		return Cast(u, other)
	}
}

// typedCompare compares two typed atomic values with op.
func typedCompare(op CompOp, a, b Atomic) (bool, error) {
	if op != OpEq && op != OpNe && !supportsOrder(a.T) {
		return false, ErrType("%s supports only eq/ne", a.T)
	}
	c, incomparable, err := compare(a, b, op == OpEq || op == OpNe)
	if err != nil {
		return false, err
	}
	if incomparable { // NaN involved: all comparisons except ne are false
		return op == OpNe, nil
	}
	switch op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	default:
		return c >= 0, nil
	}
}

// OrderCompare returns -1/0/+1 ordering two atomic values, for use by
// order-by and fn:min/max/index-of. Incomparable pairs yield a type error;
// NaN sorts as specified by the caller (this function reports NaN via the
// bool result).
func OrderCompare(a, b Atomic) (int, bool, error) { return compare(a, b, false) }

// compare orders a and b. eqOnly asks only whether they are equal, which
// the types without an order also answer: two unequal values of such a type
// compare as 1 instead of raising an error.
func compare(a, b Atomic, eqOnly bool) (cmp int, nan bool, err error) {
	// Numeric comparison with promotion.
	if a.T.IsNumeric() && b.T.IsNumeric() {
		// Exact integer/decimal fast paths.
		if a.T == TInteger && b.T == TInteger {
			return cmpI64(a.Int(), b.Int()), false, nil
		}
		if c, ok := cmpScaled(a, b); ok {
			return c, false, nil
		}
		fa, fb := a.AsFloat(), b.AsFloat()
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return 0, true, nil
		}
		return cmpF64(fa, fb), false, nil
	}
	ta, tb := a.T, b.T
	if ta == TAnyURI {
		ta = TString
	}
	if tb == TAnyURI {
		tb = TString
	}
	switch {
	case ta == TString && tb == TString:
		return strings.Compare(a.S, b.S), false, nil
	case ta == TBoolean && tb == TBoolean:
		switch {
		case a.Bool() == b.Bool():
			return 0, false, nil
		case !a.Bool():
			return -1, false, nil
		default:
			return 1, false, nil
		}
	case ta == TQName && tb == TQName:
		return unordered(a.T, a.QName().Equal(b.QName()), eqOnly)
	case ta == TNotation && tb == TNotation:
		return unordered(a.T, a.S == b.S, eqOnly)
	case ta == tb && (ta == TDateTime || ta == TDate || ta == TTime):
		return cmpI64(a.Int(), b.Int()), false, nil
	case ta == tb && ta.IsCalendar():
		// The g* types keep only their lexical form.
		return unordered(a.T, a.S == b.S, eqOnly)
	case ta == TYearMonthDuration && tb == TYearMonthDuration:
		return cmpI64(a.Int(), b.Int()), false, nil
	case ta == TDayTimeDuration && tb == TDayTimeDuration:
		return cmpI64(a.Int(), b.Int()), false, nil
	case ta.IsDuration() && tb.IsDuration():
		// Only equality is defined across general durations.
		am, as := durParts(a)
		bm, bs := durParts(b)
		return unordered(a.T, am == bm && as == bs, eqOnly)
	case (ta == THexBinary && tb == THexBinary) || (ta == TBase64Binary && tb == TBase64Binary):
		return strings.Compare(a.S, b.S), false, nil
	}
	return 0, false, ErrType("cannot compare %s with %s", a.T, b.T)
}

// unordered compares two values of a type without an order: 0 when they
// are equal, else 1 when only equality is asked and a type error when an
// order is.
func unordered(t TypeCode, equal, eqOnly bool) (int, bool, error) {
	switch {
	case equal:
		return 0, false, nil
	case eqOnly:
		return 1, false, nil
	}
	return 0, false, ErrType("%s supports only eq/ne", t)
}

// supportsOrder reports whether a type admits the ordering operators
// (lt/le/gt/ge); xs:QName, xs:NOTATION, the binary types, the generic
// xs:duration and the g* types admit only eq/ne.
func supportsOrder(t TypeCode) bool {
	switch t {
	case TQName, TNotation, THexBinary, TBase64Binary, TDuration,
		TGYearMonth, TGYear, TGMonthDay, TGDay, TGMonth:
		return false
	}
	return true
}

func durParts(a Atomic) (months int64, seconds float64) {
	switch a.T {
	case TYearMonthDuration:
		return a.Int(), 0
	case TDayTimeDuration:
		return 0, float64(a.Int()) / 1e9
	default:
		return a.Months(), a.Float()
	}
}

// cmpScaled compares two integers or exact decimals by their digits, when
// their scales align without overflow.
func cmpScaled(a, b Atomic) (int, bool) {
	ia, sa, oka := asScaledDecimal(a)
	ib, sb, okb := asScaledDecimal(b)
	if !oka || !okb {
		return 0, false
	}
	for ; sa < sb; sa++ {
		if ia, oka = mulI64(ia, 10); !oka {
			return 0, false
		}
	}
	for ; sb < sa; sb++ {
		if ib, okb = mulI64(ib, 10); !okb {
			return 0, false
		}
	}
	return cmpI64(ia, ib), true
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// DeepEqualAtomic implements fn:deep-equal's atomic rule: equal if eq is
// true, plus NaN = NaN.
func DeepEqualAtomic(a, b Atomic) bool {
	if a.T.IsNumeric() && b.T.IsNumeric() {
		fa, fb := a.AsFloat(), b.AsFloat()
		if math.IsNaN(fa) && math.IsNaN(fb) {
			return true
		}
	}
	ok, err := GeneralCompareItems(OpEq, a, b)
	return err == nil && ok
}
