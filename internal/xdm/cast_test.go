package xdm

import (
	"testing"
	"time"
)

func TestCastTable(t *testing.T) {
	cases := []struct {
		in   Atomic
		to   TypeCode
		want string // expected lexical of result; "" with fail=true means error
		fail bool
	}{
		// to string / untyped
		{NewInteger(42), TString, "42", false},
		{True, TString, "true", false},
		{NewDouble(1.5), TUntyped, "1.5", false},
		// to boolean
		{NewString("true"), TBoolean, "true", false},
		{NewString("1"), TBoolean, "true", false},
		{NewString("0"), TBoolean, "false", false},
		{NewString("yes"), TBoolean, "", true},
		{NewInteger(0), TBoolean, "false", false},
		{NewInteger(3), TBoolean, "true", false},
		{NewDouble(0), TBoolean, "false", false},
		// to numerics
		{NewString("42"), TInteger, "42", false},
		{NewString(" 42 "), TInteger, "42", false},
		{NewString("4.5"), TInteger, "", true},
		{NewString("4.5"), TDecimal, "4.5", false},
		{NewString("4.5e1"), TDouble, "45", false},
		{NewString("INF"), TDouble, "INF", false},
		{NewString("INF"), TDecimal, "", true},
		{NewDouble(3.99), TInteger, "3", false},
		{NewDecimal(99, 1), TInteger, "9", false},
		{True, TInteger, "1", false},
		{False, TDouble, "0", false},
		{NewUntyped("17"), TInteger, "17", false},
		// to anyURI
		{NewString(" http://x "), TAnyURI, "http://x", false},
		{NewInteger(1), TAnyURI, "", true},
		// to QName
		{NewString("p:local"), TQName, "p:local", false},
		// calendar
		{NewString("2003-08-19"), TDate, "2003-08-19", false},
		{NewString("not-a-date"), TDate, "", true},
		{NewString("2003-08-19T10:00:00"), TDateTime, "2003-08-19T10:00:00", false},
		{NewString("10:30:00"), TTime, "10:30:00", false},
		// durations
		{NewString("P1Y2M"), TYearMonthDuration, "P1Y2M", false},
		{NewString("P1DT2H"), TDayTimeDuration, "P1DT2H", false},
		{NewString("P1Y2M"), TDayTimeDuration, "", true},
		{NewString("P1DT2H"), TYearMonthDuration, "", true},
		{NewString("P1Y1DT1H"), TDuration, "P1Y1DT1H", false},
		{NewString("PX"), TDuration, "", true},
		// same type is identity
		{NewInteger(5), TInteger, "5", false},
	}
	for _, c := range cases {
		got, err := Cast(c.in, c.to)
		if c.fail {
			if err == nil {
				t.Errorf("Cast(%v (%v), %v) should fail, got %v", c.in.Lexical(), c.in.T, c.to, got.Lexical())
			}
			continue
		}
		if err != nil {
			t.Errorf("Cast(%v (%v), %v): %v", c.in.Lexical(), c.in.T, c.to, err)
			continue
		}
		if got.Lexical() != c.want {
			t.Errorf("Cast(%v, %v) = %q, want %q", c.in.Lexical(), c.to, got.Lexical(), c.want)
		}
		if got.T.BaseType() != c.to.BaseType() && c.to != TAnyAtomic {
			t.Errorf("Cast(%v, %v) result has type %v", c.in.Lexical(), c.to, got.T)
		}
	}
}

func TestCastable(t *testing.T) {
	if !Castable(NewString("42"), TInteger) {
		t.Error(`"42" castable as xs:integer`)
	}
	if Castable(NewString("x42"), TInteger) {
		t.Error(`"x42" not castable as xs:integer`)
	}
	// The paper's example: (castable) guards a cast.
	if !Castable(NewUntyped("2"), TInteger) {
		t.Error("untyped 2 castable as integer")
	}
}

func TestCastDateTimeToDateAndTime(t *testing.T) {
	dt, err := Cast(NewString("2004-09-14T10:30:45"), TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Cast(dt, TDate)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lexical() != "2004-09-14" {
		t.Errorf("dateTime->date = %q", d.Lexical())
	}
	tm, err := Cast(dt, TTime)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Lexical() != "10:30:45" {
		t.Errorf("dateTime->time = %q", tm.Lexical())
	}
	back, err := Cast(d, TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	if time.Unix(0, back.Int()).UTC().Hour() != 0 {
		t.Error("date->dateTime should be midnight")
	}
}

func TestPromote(t *testing.T) {
	cases := []struct{ a, b, want TypeCode }{
		{TInteger, TInteger, TInteger},
		{TInteger, TDecimal, TDecimal},
		{TDecimal, TFloat, TFloat},
		{TFloat, TDouble, TDouble},
		{TInteger, TDouble, TDouble},
		{TDouble, TInteger, TDouble},
		{TAnyURI, TString, TString},
		{TString, TAnyURI, TString},
	}
	for _, c := range cases {
		if got := Promote(c.a, c.b); got != c.want {
			t.Errorf("Promote(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDurationParsing(t *testing.T) {
	cases := []struct {
		in     string
		months int64
		ns     int64
		fail   bool
	}{
		{"P1Y", 12, 0, false},
		{"P1Y6M", 18, 0, false},
		{"-P2M", -2, 0, false},
		{"PT1H30M", 0, int64(90 * time.Minute), false},
		{"P1DT1S", 0, int64(24*time.Hour + time.Second), false},
		{"PT0.5S", 0, int64(500 * time.Millisecond), false},
		{"P", 0, 0, true},
		{"1Y", 0, 0, true},
		{"PY", 0, 0, true},
	}
	for _, c := range cases {
		m, ns, err := parseDurationLexical(c.in)
		if c.fail {
			if err == nil {
				t.Errorf("parseDuration(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDuration(%q): %v", c.in, err)
			continue
		}
		if m != c.months || ns != c.ns {
			t.Errorf("parseDuration(%q) = %d months %d ns, want %d, %d", c.in, m, ns, c.months, c.ns)
		}
	}
}

func TestGregorianCasts(t *testing.T) {
	// Gregorian types accept lexical strings and extract from dates.
	g, err := Cast(NewString("2004-09"), TGYearMonth)
	if err != nil || g.Lexical() != "2004-09" {
		t.Errorf("gYearMonth = %v, %v", g.Lexical(), err)
	}
	d, _ := Cast(NewString("2004-09-14"), TDate)
	gy, err := Cast(d, TGYear)
	if err != nil || gy.T != TGYear {
		t.Errorf("date->gYear: %v %v", gy, err)
	}
	if _, err := Cast(NewInteger(1), TGMonth); err == nil {
		t.Error("integer to gMonth must fail")
	}
}

func TestBinaryCasts(t *testing.T) {
	h, err := Cast(NewString("CAFE"), THexBinary)
	if err != nil || h.T != THexBinary {
		t.Fatal(err)
	}
	b64, err := Cast(h, TBase64Binary)
	if err != nil || b64.T != TBase64Binary {
		t.Fatal(err)
	}
	if eq, err := ValueCompare(OpEq, h, h); err != nil || !eq {
		t.Error("hexBinary eq itself")
	}
	if _, err := ValueCompare(OpLt, h, h); err == nil {
		t.Error("hexBinary supports only eq/ne")
	}
}
