package xdm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestPaperArithmeticRules covers the "Arithmetic expressions" slide:
// atomize, untyped casts to xs:double, promotion to a common type, errors
// for inconsistent types.
func TestPaperArithmeticRules(t *testing.T) {
	// <a>42</a> + 1: untyped "42" casts to double -> 43.
	r, err := Arith(OpAdd, NewUntyped("42"), NewInteger(1))
	if err != nil {
		t.Fatalf("untyped 42 + 1: %v", err)
	}
	if r.T != TDouble || r.Float() != 43 {
		t.Errorf("untyped 42 + 1 = %v (%v), want double 43", r.Lexical(), r.T)
	}
	// <a>baz</a> + 1: FORG0001, whose message names the operand, on either
	// side.
	if _, err := Arith(OpAdd, NewUntyped("baz"), NewInteger(1)); !IsCode(err, "FORG0001") || !strings.Contains(err.Error(), `"baz"`) {
		t.Errorf("untyped baz + 1: %v, want FORG0001 naming \"baz\"", err)
	}
	if _, err := Arith(OpSub, NewInteger(1), NewUntyped("x")); !IsCode(err, "FORG0001") || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("1 - untyped x: %v, want FORG0001 naming \"x\"", err)
	}
	// Typed integer + 1 stays integer.
	r, err = Arith(OpAdd, NewInteger(42), NewInteger(1))
	if err != nil || r.T != TInteger || r.Int() != 43 {
		t.Errorf("42 + 1 = %v (%v), %v", r.Lexical(), r.T, err)
	}
	// String + 1: type error.
	if _, err := Arith(OpAdd, NewString("42"), NewInteger(1)); err == nil {
		t.Error("string + integer should be a type error")
	}
}

func TestNumericPromotionInArith(t *testing.T) {
	cases := []struct {
		op       ArithOp
		a, b     Atomic
		wantType TypeCode
		want     float64
	}{
		{OpAdd, NewInteger(1), NewInteger(2), TInteger, 3},
		{OpAdd, NewInteger(1), NewDecimal(25, 1), TDecimal, 3.5},
		{OpMul, NewDecimal(15, 1), NewDouble(2), TDouble, 3},
		{OpSub, NewFloat(1.5), NewInteger(1), TFloat, 0.5},
		{OpDiv, NewInteger(1), NewInteger(2), TDecimal, 0.5}, // int div int -> decimal
		{OpDiv, NewDouble(1), NewDouble(0), TDouble, math.Inf(1)},
		{OpMod, NewInteger(7), NewInteger(3), TInteger, 1},
		{OpMul, NewDecimal(15, 1), NewDecimal(2, 0), TDecimal, 3},
	}
	for _, c := range cases {
		r, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%v %v %v: %v", c.a.Lexical(), c.op, c.b.Lexical(), err)
			continue
		}
		if r.T != c.wantType {
			t.Errorf("%v %v %v type = %v, want %v", c.a.Lexical(), c.op, c.b.Lexical(), r.T, c.wantType)
		}
		if !(math.IsInf(c.want, 1) && math.IsInf(r.AsFloat(), 1)) && r.AsFloat() != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a.Lexical(), c.op, c.b.Lexical(), r.AsFloat(), c.want)
		}
	}
}

func TestIDiv(t *testing.T) {
	cases := []struct {
		a, b Atomic
		want int64
		fail bool
	}{
		{NewInteger(7), NewInteger(2), 3, false},
		{NewInteger(-7), NewInteger(2), -3, false},
		{NewDouble(7.9), NewInteger(2), 3, false},
		{NewDecimal(75, 1), NewDecimal(25, 1), 3, false},
		{NewInteger(1), NewInteger(0), 0, true},
		{NewDouble(1), NewDouble(0), 0, true},
	}
	for _, c := range cases {
		r, err := Arith(OpIDiv, c.a, c.b)
		if c.fail {
			if err == nil {
				t.Errorf("%v idiv %v should fail", c.a.Lexical(), c.b.Lexical())
			}
			continue
		}
		if err != nil {
			t.Errorf("%v idiv %v: %v", c.a.Lexical(), c.b.Lexical(), err)
			continue
		}
		if r.T != TInteger || r.Int() != c.want {
			t.Errorf("%v idiv %v = %v (%v), want %d", c.a.Lexical(), c.b.Lexical(), r.Lexical(), r.T, c.want)
		}
	}
}

func TestDivModByZero(t *testing.T) {
	if _, err := Arith(OpDiv, NewInteger(1), NewInteger(0)); err == nil {
		t.Error("integer 1 div 0 should error")
	}
	if _, err := Arith(OpMod, NewInteger(1), NewInteger(0)); err == nil {
		t.Error("1 mod 0 should error")
	}
	// Double division by zero yields INF, not an error.
	if r, err := Arith(OpDiv, NewDouble(-1), NewDouble(0)); err != nil || !math.IsInf(r.Float(), -1) {
		t.Errorf("-1e0 div 0e0 = %v, %v; want -INF", r.Lexical(), err)
	}
}

func TestIntegerOverflow(t *testing.T) {
	if _, err := Arith(OpAdd, NewInteger(math.MaxInt64), NewInteger(1)); err == nil {
		t.Error("MaxInt64 + 1 should overflow")
	}
	if _, err := Arith(OpMul, NewInteger(math.MaxInt64/2+1), NewInteger(2)); err == nil {
		t.Error("overflowing multiply should error")
	}
	if _, err := Arith(OpSub, NewInteger(math.MinInt64), NewInteger(1)); err == nil {
		t.Error("MinInt64 - 1 should overflow")
	}
}

func TestExactDecimalArithmetic(t *testing.T) {
	// 0.1 + 0.2 must be exactly 0.3 via scaled integers.
	a, _ := ParseDecimal("0.1")
	b, _ := ParseDecimal("0.2")
	r, err := Arith(OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lexical() != "0.3" {
		t.Errorf("0.1 + 0.2 = %q, want 0.3 exactly", r.Lexical())
	}
	// The paper's warning: decimals lose transitivity through float
	// fallback only — exact path must not engage floats.
	if !r.Exact() {
		t.Error("0.1 + 0.2 should stay in the exact representation")
	}
}

func TestTemporalArith(t *testing.T) {
	d1 := NewDayTimeDuration(time.Hour)
	d2 := NewDayTimeDuration(30 * time.Minute)
	if r, err := Arith(OpAdd, d1, d2); err != nil || r.Lexical() != "PT1H30M" {
		t.Errorf("PT1H + PT30M = %v, %v", r.Lexical(), err)
	}
	if r, err := Arith(OpSub, d1, d2); err != nil || r.Lexical() != "PT30M" {
		t.Errorf("PT1H - PT30M = %v, %v", r.Lexical(), err)
	}
	if r, err := Arith(OpMul, d2, NewInteger(4)); err != nil || r.Lexical() != "PT2H" {
		t.Errorf("PT30M * 4 = %v, %v", r.Lexical(), err)
	}
	if r, err := Arith(OpDiv, d1, d2); err != nil || r.AsFloat() != 2 {
		t.Errorf("PT1H div PT30M = %v, %v", r.Lexical(), err)
	}
	ym := NewYearMonthDuration(18)
	if r, err := Arith(OpAdd, ym, NewYearMonthDuration(6)); err != nil || r.Lexical() != "P2Y" {
		t.Errorf("P1Y6M + P6M = %v, %v", r.Lexical(), err)
	}

	date, _ := Cast(NewString("2004-09-14"), TDate)
	if r, err := Arith(OpAdd, date, NewDayTimeDuration(48*time.Hour)); err != nil || time.Unix(0, r.Int()).UTC().Day() != 16 {
		t.Errorf("date + P2D = %v, %v", r.Lexical(), err)
	}
	if r, err := Arith(OpAdd, date, NewYearMonthDuration(3)); err != nil || time.Unix(0, r.Int()).UTC().Month() != time.December {
		t.Errorf("date + P3M = %v, %v", r.Lexical(), err)
	}
	d3, _ := Cast(NewString("2004-09-16"), TDate)
	if r, err := Arith(OpSub, d3, date); err != nil || r.Lexical() != "P2D" {
		t.Errorf("date - date = %v, %v", r.Lexical(), err)
	}
	// The paper's customer query: @ttl div 1000 (untyped div integer).
	if r, err := Arith(OpDiv, NewUntyped("33000"), NewInteger(1000)); err != nil || r.AsFloat() != 33 {
		t.Errorf("untyped 33000 div 1000 = %v, %v", r.Lexical(), err)
	}
}

func TestNegate(t *testing.T) {
	if r, _ := Negate(NewInteger(5)); r.Int() != -5 {
		t.Error("-5")
	}
	if r, _ := Negate(NewDouble(1.5)); r.Float() != -1.5 {
		t.Error("-1.5")
	}
	if r, _ := Negate(NewDecimal(25, 1)); r.Lexical() != "-2.5" {
		t.Error("-2.5")
	}
	if r, _ := Negate(NewUntyped("3")); r.T != TDouble || r.Float() != -3 {
		t.Error("unary minus casts untyped to double")
	}
	if _, err := Negate(NewString("x")); err == nil {
		t.Error("negating a string must fail")
	}
	if r, _ := Negate(NewDayTimeDuration(time.Hour)); r.Lexical() != "-PT1H" {
		t.Error("-PT1H")
	}
}

// Property: integer addition via Arith agrees with Go addition when no
// overflow occurs.
func TestIntegerArithQuick(t *testing.T) {
	f := func(a, b int32) bool {
		r, err := Arith(OpAdd, NewInteger(int64(a)), NewInteger(int64(b)))
		return err == nil && r.Int() == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: exact decimal add/sub round-trips against float arithmetic
// within the exact range.
func TestDecimalAddQuick(t *testing.T) {
	f := func(a, b int16) bool {
		x := NewDecimal(int64(a), 2)
		y := NewDecimal(int64(b), 2)
		r, err := Arith(OpAdd, x, y)
		if err != nil {
			return false
		}
		return math.Abs(r.AsFloat()-(float64(a)+float64(b))/100) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntArith pins the xs:integer kernel that xdm.Arith and the runtime's
// integer form share at the edges of int64: overflow is FOAR0002 (also for
// MinInt64 idiv -1 and MinInt64 * -1, which wrap in Go), a zero divisor
// FOAR0001.
func TestIntArith(t *testing.T) {
	for _, c := range []struct {
		op   ArithOp
		a, b int64
		want int64
		code string
	}{
		{OpAdd, math.MaxInt64, 1, 0, "FOAR0002"},
		{OpSub, 0, math.MinInt64, 0, "FOAR0002"},
		{OpMul, math.MinInt64, -1, 0, "FOAR0002"},
		{OpMul, -1, math.MinInt64, 0, "FOAR0002"},
		{OpIDiv, math.MinInt64, -1, 0, "FOAR0002"},
		{OpIDiv, 7, 0, 0, "FOAR0001"},
		{OpMod, 7, 0, 0, "FOAR0001"},
		{OpMod, math.MinInt64, -1, 0, ""},
		{OpIDiv, -7, 2, -3, ""},
		{OpMod, -7, 2, -1, ""},
		{OpMul, -3, 4, -12, ""},
	} {
		got, err := IntArith(c.op, c.a, c.b)
		if c.code != "" {
			if !IsCode(err, c.code) {
				t.Errorf("%d %s %d: %v, want err:%s", c.a, c.op, c.b, err, c.code)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%d %s %d = %d, %v; want %d", c.a, c.op, c.b, got, err, c.want)
		}
		if r, err := Arith(c.op, NewInteger(c.a), NewInteger(c.b)); err != nil || r.T != TInteger || r.Int() != got {
			t.Errorf("Arith(%d %s %d) = %s, %v; want the kernel's %d", c.a, c.op, c.b, r.Lexical(), err, got)
		}
	}
}

// TestRoundScaled rounds integers and exact decimals on their digits, and
// declines the precisions whose digits to drop or whose multiple leave the
// int64 range, including those where scale - p would wrap.
func TestRoundScaled(t *testing.T) {
	for _, c := range []struct {
		a    Atomic
		p    int64
		want string // "" when RoundScaled declines
	}{
		{NewDecimal(2665, 3), 2, "2.66"},
		{NewDecimal(-2675, 3), 2, "-2.68"},
		{NewInteger(-35750), -2, "-35800"},
		{NewInteger(42), 3, "42"},
		{NewInteger(math.MaxInt64), -18, "9000000000000000000"},
		{NewInteger(math.MaxInt64), -19, ""},
		{NewDecimal(25, 1), math.MinInt64, ""},
		{NewInteger(12345), math.MinInt64, ""},
		{NewDouble(2.5), 0, ""},
	} {
		r, ok := RoundScaled(c.a, c.p)
		if got := r.Lexical(); ok != (c.want != "") || ok && got != c.want {
			t.Errorf("RoundScaled(%s, %d) = %q, %v; want %q", c.a.Lexical(), c.p, got, ok, c.want)
		}
	}
}
