package xdm

import (
	"testing"
	"time"
	"unsafe"
)

// TestAtomicLayout pins the size of an atomic value: an 8-byte header, one
// payload word and one string. Every comparison, cast and boxed item
// copies it.
func TestAtomicLayout(t *testing.T) {
	if n := unsafe.Sizeof(Atomic{}); n > 32 {
		t.Fatalf("xdm.Atomic is %d bytes, want at most 32", n)
	}
}

// roundTripRows are the values whose representation the 32-byte layout
// packs: decimals past the scaled int64 range (a float64), xs:duration
// (months in the header, seconds in the payload), QNames (three strings
// in one), and the values kept by their lexical form.
var roundTripRows = []struct {
	lex string
	to  TypeCode
}{
	{"123456789012345678901234.5", TDecimal},
	{"-0.0000000000000000000012345", TDecimal},
	{"922337203685477580.7", TDecimal},
	{"12.50", TDecimal},
	{"P1Y2M3DT4H5M6.5S", TDuration},
	{"-P1Y2M3DT4H", TDuration},
	{"-PT0.3S", TDuration},
	{"P14M", TDuration},
	{"P1Y2M", TYearMonthDuration},
	{"-P3DT4H0.25S", TDayTimeDuration},
	{"PT0.001971831S", TDayTimeDuration},
	{"p:local", TQName},
	{"local", TQName},
	{"2004-03-30T12:00:00Z", TDateTime},
	{"2004-03-30T12:00:00.5", TDateTime},
	{"2004-03-30T12:00:00+02:00", TDateTime},
	{"2004-03-30", TDate},
	{"2004-03-30-05:00", TDate},
	{"12:30:00Z", TTime},
	{"12:30:00", TTime},
	{"2004", TGYear},
	{"CAFE", THexBinary},
	{"SGVsbG8=", TBase64Binary},
}

// TestAtomicRoundTrip casts each row from its lexical form, serializes it,
// casts the serialization back, and compares the two by value and by the
// general-comparison rule; it checks the arithmetic that applies.
func TestAtomicRoundTrip(t *testing.T) {
	for _, r := range roundTripRows {
		a, err := Cast(NewString(r.lex), r.to)
		if err != nil {
			t.Errorf("%s(%q): %v", r.to, r.lex, err)
			continue
		}
		roundTrip(t, a)
	}
	// Values no cast from a string makes: namespaced QNames, NOTATION,
	// and durations cast from their subtypes, which keep no lexical form.
	for _, a := range []Atomic{
		NewQName(QName{Space: "urn:p", Local: "l", Prefix: "p"}),
		NewQName(QName{Space: "urn:p", Local: "l"}),
		NewQName(QName{}),
		{T: TNotation, S: "p:n"},
	} {
		roundTripValue(t, a, a)
	}
	for _, c := range []struct {
		from Atomic
		want string
	}{
		{NewYearMonthDuration(-14), "-P1Y2M"},
		{NewDayTimeDuration(-(26*time.Hour + 500*time.Millisecond)), "-P1DT2H0.5S"},
	} {
		d, err := Cast(c.from, TDuration)
		if err != nil || d.Lexical() != c.want {
			t.Errorf("xs:duration(%s) = %q, %v; want %q", c.from.Lexical(), d.Lexical(), err, c.want)
			continue
		}
		roundTrip(t, d)
		if back, err := Cast(d, c.from.T); err != nil || !DeepEqualAtomic(back, c.from) {
			t.Errorf("%s(xs:duration(%s)) = %s, %v", c.from.T, c.want, back.Lexical(), err)
		}
	}
	q := NewQName(QName{Space: "urn:p", Local: "l", Prefix: "p"}).QName()
	if q != (QName{Space: "urn:p", Local: "l", Prefix: "p"}) {
		t.Errorf("QName parts = %+v", q)
	}
}

// roundTrip checks a against the cast of its serialization.
func roundTrip(t *testing.T, a Atomic) {
	t.Helper()
	b, err := Cast(NewString(a.Lexical()), a.T)
	if err != nil {
		t.Errorf("%s(%q) does not cast back: %v", a.T, a.Lexical(), err)
		return
	}
	roundTripValue(t, a, b)
	if ok, err := GeneralCompareItems(OpEq, NewUntyped(a.Lexical()), a); err != nil || !ok {
		t.Errorf("untyped %q = %s(%q): %v, %v", a.Lexical(), a.T, a.Lexical(), ok, err)
	}
	arith(t, a)
}

// roundTripValue checks that a and b are one value of one type.
func roundTripValue(t *testing.T, a, b Atomic) {
	t.Helper()
	if b.T != a.T || b.Lexical() != a.Lexical() {
		t.Errorf("%s(%q) came back as %s(%q)", a.T, a.Lexical(), b.T, b.Lexical())
	}
	if ok, err := ValueCompare(OpEq, a, b); err != nil || !ok {
		t.Errorf("%s(%q) eq itself: %v, %v", a.T, a.Lexical(), ok, err)
	}
	if ok, err := ValueCompare(OpNe, b, a); err != nil || ok {
		t.Errorf("%s(%q) ne itself: %v, %v", a.T, a.Lexical(), ok, err)
	}
	if s, err := Cast(a, TString); err != nil || s.S != a.Lexical() {
		t.Errorf("string(%s(%q)) = %q, %v", a.T, a.Lexical(), s.S, err)
	}
}

// arith checks the identities of the arithmetic a's type has.
func arith(t *testing.T, a Atomic) {
	t.Helper()
	var zero Atomic
	switch a.T {
	case TDecimal:
		zero = NewDecimal(0, 0)
	case TYearMonthDuration:
		zero = NewYearMonthDuration(0)
	case TDayTimeDuration, TDateTime, TDate, TTime:
		zero = NewDayTimeDuration(0)
	default:
		return
	}
	sum, err := Arith(OpAdd, a, zero)
	if err != nil || !DeepEqualAtomic(sum, a) {
		t.Errorf("%s(%q) + 0 = %s, %v", a.T, a.Lexical(), sum.Lexical(), err)
	}
	if a.T == TDecimal || a.T == TYearMonthDuration || a.T == TDayTimeDuration {
		neg, err := Negate(a)
		back, err2 := Negate(neg)
		if err != nil || err2 != nil || !DeepEqualAtomic(back, a) {
			t.Errorf("-(-%s(%q)) = %s, %v %v", a.T, a.Lexical(), back.Lexical(), err, err2)
		}
	}
	if diff, err := Arith(OpSub, a, a); err != nil || diff.AsFloat() != 0 && diff.Int() != 0 {
		t.Errorf("%s(%q) - itself = %s, %v", a.T, a.Lexical(), diff.Lexical(), err)
	}
}

// castTargets are the types FuzzAtomicCast casts to.
var castTargets = []TypeCode{
	TString, TUntyped, TBoolean, TDecimal, TInteger, TFloat, TDouble,
	TDuration, TYearMonthDuration, TDayTimeDuration, TDateTime, TTime, TDate,
	TGYearMonth, TGYear, TGMonthDay, TGDay, TGMonth, THexBinary, TBase64Binary,
	TAnyURI, TQName,
}

// FuzzAtomicCast casts two lexical forms to one type. A value serialized
// and cast back must compare equal to the first cast (NaN to NaN), and the
// order of the two values must be antisymmetric.
func FuzzAtomicCast(f *testing.F) {
	for i, r := range roundTripRows {
		for j, to := range castTargets {
			if to == r.to {
				f.Add(r.lex, roundTripRows[(i+1)%len(roundTripRows)].lex, uint8(j))
			}
		}
	}
	f.Add("1", "2.5", uint8(3))
	f.Add("NaN", "-INF", uint8(6))
	f.Add("1e300", "1e-7", uint8(6)) // canonical exponent forms 1.0E300, 1.0E-7
	f.Add("1.5e20", "-1.5E20", uint8(6))
	f.Add("1e15", "123456789.5", uint8(6))
	f.Add("0.1", "1e-7", uint8(5)) // xs:float: shortest float32 digits 0.1, 1.0E-7
	f.Add("3.4028235e38", "-1.5e20", uint8(5))
	f.Add("0.33333334", "16777217", uint8(5))
	f.Add("true", "0", uint8(2))
	f.Fuzz(func(t *testing.T, lex1, lex2 string, which uint8) {
		to := castTargets[int(which)%len(castTargets)]
		a, err := Cast(NewString(lex1), to)
		if err != nil {
			return
		}
		back, err := Cast(NewString(a.Lexical()), to)
		if err != nil {
			t.Fatalf("%s(%q) serializes as %q, which does not cast back: %v", to, lex1, a.Lexical(), err)
		}
		if !DeepEqualAtomic(a, back) {
			t.Fatalf("%s(%q) serializes as %q, which casts back to %q", to, lex1, a.Lexical(), back.Lexical())
		}
		b, err := Cast(NewString(lex2), to)
		if err != nil {
			return
		}
		ab, nan1, err1 := OrderCompare(a, b)
		ba, nan2, err2 := OrderCompare(b, a)
		if (err1 == nil) != (err2 == nil) || nan1 != nan2 || err1 == nil && ab != -ba {
			t.Fatalf("%s: compare(%q, %q) = %d %v %v, compare back = %d %v %v",
				to, lex1, lex2, ab, nan1, err1, ba, nan2, err2)
		}
		eq1, err1 := ValueCompare(OpEq, a, b)
		eq2, err2 := ValueCompare(OpEq, b, a)
		if eq1 != eq2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: %q eq %q = %v %v, reversed %v %v", to, lex1, lex2, eq1, err1, eq2, err2)
		}
	})
}
