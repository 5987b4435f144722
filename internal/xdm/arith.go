package xdm

import (
	"math"
	"time"
)

// ArithOp is an arithmetic operator.
type ArithOp uint8

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv  // div
	OpIDiv // idiv
	OpMod  // mod
)

var arithNames = [...]string{"+", "-", "*", "div", "idiv", "mod"}

func (op ArithOp) String() string { return arithNames[op] }

// Arith applies the paper's arithmetic rules to two already-atomized
// operands: untyped operands are cast to xs:double; numeric operands are
// promoted to a common type; date/duration combinations are dispatched to
// the temporal rules; anything else is a type error. (The empty-sequence
// rule — () as operand yields () — is handled by the evaluator before
// calling Arith.)
func Arith(op ArithOp, a, b Atomic) (Atomic, error) {
	var err error
	if a, err = untypedOperand(a); err != nil {
		return Atomic{}, err
	}
	if b, err = untypedOperand(b); err != nil {
		return Atomic{}, err
	}
	if a.T.IsNumeric() && b.T.IsNumeric() {
		return numericArith(op, a, b)
	}
	if r, ok, err := temporalArith(op, a, b); ok {
		return r, err
	}
	return Atomic{}, ErrType("operator %s not defined for %s and %s", op, a.T, b.T)
}

// untypedOperand casts an untyped operand to xs:double; any other passes.
func untypedOperand(a Atomic) (Atomic, error) {
	if a.T != TUntyped {
		return a, nil
	}
	d, err := Cast(a, TDouble)
	if err != nil {
		return Atomic{}, ErrCast("untyped operand %q is not a number", a.S)
	}
	return d, nil
}

// IntArith is the xs:integer kernel of +, -, *, idiv and mod: overflow is
// err:FOAR0002 and a zero divisor err:FOAR0001. div, whose integer result
// is an xs:decimal, is not an integer operation.
func IntArith(op ArithOp, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		if r, ok := addI64(a, b); ok {
			return r, nil
		}
	case OpSub:
		if b != math.MinInt64 {
			if r, ok := addI64(a, -b); ok {
				return r, nil
			}
		}
	case OpMul:
		if r, ok := mulI64(a, b); ok {
			return r, nil
		}
	case OpIDiv, OpMod:
		if b == 0 {
			return 0, ErrDivZero()
		}
		if b == -1 {
			if op == OpMod {
				return 0, nil
			}
			if a == math.MinInt64 {
				return 0, ErrOverflow()
			}
			return -a, nil
		}
		if op == OpIDiv {
			return a / b, nil
		}
		return a % b, nil
	default:
		return 0, ErrType("operator %s is not an integer operation", op)
	}
	return 0, ErrOverflow()
}

func numericArith(op ArithOp, a, b Atomic) (Atomic, error) {
	common := Promote(a.T, b.T)
	switch op {
	case OpIDiv:
		// idiv always yields xs:integer.
		if common == TDouble || common == TFloat {
			fa, fb := a.AsFloat(), b.AsFloat()
			if fb == 0 {
				return Atomic{}, ErrDivZero()
			}
			q := math.Trunc(fa / fb)
			if math.IsNaN(q) || math.IsInf(q, 0) {
				return Atomic{}, ErrOverflow()
			}
			return NewInteger(int64(q)), nil
		}
		if common == TDecimal {
			fa, fb := a.AsFloat(), b.AsFloat()
			if fb == 0 {
				return Atomic{}, ErrDivZero()
			}
			return NewInteger(int64(math.Trunc(fa / fb))), nil
		}
		r, err := IntArith(op, a.Int(), b.Int())
		if err != nil {
			return Atomic{}, err
		}
		return NewInteger(r), nil
	case OpDiv:
		// Integer div integer yields xs:decimal.
		if common == TInteger {
			common = TDecimal
		}
	}

	switch common {
	case TInteger:
		r, err := IntArith(op, a.Int(), b.Int())
		if err != nil {
			return Atomic{}, err
		}
		return NewInteger(r), nil
	case TDecimal:
		// Exact path when both decimals are scaled int64s and the result fits.
		if r, ok := exactDecimalArith(op, a, b); ok {
			return r, nil
		}
		fa, fb := a.AsFloat(), b.AsFloat()
		r, err := floatArith(op, fa, fb, true)
		if err != nil {
			return Atomic{}, err
		}
		return NewDecimalFloat(r), nil
	case TFloat:
		r, err := floatArith(op, a.AsFloat(), b.AsFloat(), false)
		if err != nil {
			return Atomic{}, err
		}
		return NewFloat(r), nil
	default: // TDouble
		r, err := floatArith(op, a.AsFloat(), b.AsFloat(), false)
		if err != nil {
			return Atomic{}, err
		}
		return NewDouble(r), nil
	}
}

// exactDecimalArith performs add/sub/mul on scaled-int64 decimals when both
// operands and the result stay exact.
func exactDecimalArith(op ArithOp, a, b Atomic) (Atomic, bool) {
	ia, sa, oka := asScaledDecimal(a)
	ib, sb, okb := asScaledDecimal(b)
	if !oka || !okb {
		return Atomic{}, false
	}
	switch op {
	case OpAdd, OpSub:
		// Align scales.
		for ; sa < sb; sa++ {
			v, ok := mulI64(ia, 10)
			if !ok {
				return Atomic{}, false
			}
			ia = v
		}
		for ; sb < sa; sb++ {
			v, ok := mulI64(ib, 10)
			if !ok {
				return Atomic{}, false
			}
			ib = v
		}
		if op == OpSub {
			if ib == math.MinInt64 {
				return Atomic{}, false
			}
			ib = -ib
		}
		r, ok := addI64(ia, ib)
		if !ok {
			return Atomic{}, false
		}
		return NewDecimal(r, sa), true
	case OpMul:
		r, ok := mulI64(ia, ib)
		if !ok || int(sa)+int(sb) > 18 {
			return Atomic{}, false
		}
		return NewDecimal(r, sa+sb), true
	}
	return Atomic{}, false
}

// asScaledDecimal returns an integer or exact decimal as digits and scale.
func asScaledDecimal(a Atomic) (digits int64, scale uint8, ok bool) {
	switch {
	case a.T == TDecimal && a.Exact():
		return a.Int(), a.Scale, true
	case a.T == TInteger:
		return a.Int(), 0, true
	}
	return 0, 0, false
}

// RoundScaled rounds an xs:integer or exact xs:decimal half to even at
// precision p, to the multiple of 10^-p nearest it, on its digits and
// scale; ok=false for any other value, or when the digits to drop or the
// result leave the int64 range.
func RoundScaled(a Atomic, p int64) (Atomic, bool) {
	digits, scale, ok := asScaledDecimal(a)
	switch {
	case !ok:
		return Atomic{}, false
	case p >= int64(scale):
		return a, true
	case p < int64(scale)-18: // more digits to drop than an int64 divisor holds
		return Atomic{}, false
	}
	div := pow10i(uint8(int64(scale) - p))
	q, r := digits/div, digits%div
	if r < 0 {
		r = -r
	}
	if 2*r > div || 2*r == div && q%2 != 0 {
		if digits < 0 {
			q--
		} else {
			q++
		}
	}
	if p < 0 { // q counts multiples of 10^-p
		if q, ok = mulI64(q, pow10i(uint8(-p))); !ok {
			return Atomic{}, false
		}
		p = 0
	}
	if a.T == TInteger {
		return NewInteger(q), true
	}
	return NewDecimal(q, uint8(p)), true
}

func floatArith(op ArithOp, a, b float64, isDecimal bool) (float64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if isDecimal && b == 0 {
			return 0, ErrDivZero()
		}
		return a / b, nil
	case OpMod:
		if isDecimal && b == 0 {
			return 0, ErrDivZero()
		}
		return math.Mod(a, b), nil
	}
	return 0, ErrType("bad float op %s", op)
}

func addI64(a, b int64) (int64, bool) {
	r := a + b
	if (a > 0 && b > 0 && r < 0) || (a < 0 && b < 0 && r >= 0) {
		return 0, false
	}
	return r, true
}

func mulI64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	r := a * b
	if r/b != a || a == -1 && b == math.MinInt64 || b == -1 && a == math.MinInt64 {
		return 0, false
	}
	return r, true
}

// temporalArith handles date/time ± duration, duration ± duration,
// duration * number, and dateTime - dateTime. ok reports whether the type
// combination was temporal at all.
func temporalArith(op ArithOp, a, b Atomic) (Atomic, bool, error) {
	switch {
	// duration + duration, duration - duration (same subtype)
	case a.T == TYearMonthDuration && b.T == TYearMonthDuration && (op == OpAdd || op == OpSub):
		if op == OpAdd {
			return NewYearMonthDuration(a.Int() + b.Int()), true, nil
		}
		return NewYearMonthDuration(a.Int() - b.Int()), true, nil
	case a.T == TDayTimeDuration && b.T == TDayTimeDuration:
		switch op {
		case OpAdd:
			return NewDayTimeDuration(time.Duration(a.Int() + b.Int())), true, nil
		case OpSub:
			return NewDayTimeDuration(time.Duration(a.Int() - b.Int())), true, nil
		case OpDiv:
			if b.Int() == 0 {
				return Atomic{}, true, ErrDivZero()
			}
			return NewDecimalFloat(float64(a.Int()) / float64(b.Int())), true, nil
		}
	// duration * number / number * duration
	case (a.T == TYearMonthDuration || a.T == TDayTimeDuration) && b.T.IsNumeric() && (op == OpMul || op == OpDiv):
		f := b.AsFloat()
		if op == OpDiv {
			if f == 0 {
				return Atomic{}, true, ErrDivZero()
			}
			f = 1 / f
		}
		if a.T == TYearMonthDuration {
			return NewYearMonthDuration(int64(math.Round(float64(a.Int()) * f))), true, nil
		}
		return NewDayTimeDuration(time.Duration(float64(a.Int()) * f)), true, nil
	case a.T.IsNumeric() && (b.T == TYearMonthDuration || b.T == TDayTimeDuration) && op == OpMul:
		return temporalArith(op, b, a)
	// dateTime/date/time ± dayTimeDuration
	case (a.T == TDateTime || a.T == TDate || a.T == TTime) && b.T == TDayTimeDuration && (op == OpAdd || op == OpSub):
		d := b.Int()
		if op == OpSub {
			d = -d
		}
		return Atomic{T: a.T, w: uint64(a.Int() + d)}, true, nil
	// dateTime/date ± yearMonthDuration
	case (a.T == TDateTime || a.T == TDate) && b.T == TYearMonthDuration && (op == OpAdd || op == OpSub):
		m := b.Int()
		if op == OpSub {
			m = -m
		}
		t := time.Unix(0, a.Int()).UTC().AddDate(0, int(m), 0)
		return Atomic{T: a.T, w: uint64(t.UnixNano())}, true, nil
	// dateTime - dateTime (same type) yields dayTimeDuration
	case a.T == b.T && (a.T == TDateTime || a.T == TDate || a.T == TTime) && op == OpSub:
		return NewDayTimeDuration(time.Duration(a.Int() - b.Int())), true, nil
	}
	return Atomic{}, false, nil
}

// Negate applies unary minus to a numeric or duration value.
func Negate(a Atomic) (Atomic, error) {
	var err error
	if a.T == TUntyped {
		if a, err = Cast(a, TDouble); err != nil {
			return Atomic{}, err
		}
	}
	switch a.T {
	case TInteger:
		return NewInteger(-a.Int()), nil
	case TDecimal:
		if a.Exact() {
			return NewDecimal(-a.Int(), a.Scale), nil
		}
		return NewDecimalFloat(-a.Float()), nil
	case TDouble:
		return NewDouble(-a.Float()), nil
	case TFloat:
		return NewFloat(-a.Float()), nil
	case TYearMonthDuration:
		return NewYearMonthDuration(-a.Int()), nil
	case TDayTimeDuration:
		return NewDayTimeDuration(time.Duration(-a.Int())), nil
	}
	return Atomic{}, ErrType("unary minus not defined for %s", a.T)
}
