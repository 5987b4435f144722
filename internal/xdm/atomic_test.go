package xdm

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestLexicalForms(t *testing.T) {
	cases := []struct {
		val  Atomic
		want string
	}{
		{NewString("hello"), "hello"},
		{NewUntyped("u"), "u"},
		{True, "true"},
		{False, "false"},
		{NewInteger(42), "42"},
		{NewInteger(-7), "-7"},
		{NewDecimal(12345, 2), "123.45"},
		{NewDecimal(-50, 1), "-5"},
		{NewDecimal(5, 0), "5"},
		{NewDecimal(5, 3), "0.005"},
		{NewDouble(1.5), "1.5"},
		{NewDouble(3), "3"},
		{NewDouble(math.Inf(1)), "INF"},
		{NewDouble(math.Inf(-1)), "-INF"},
		{NewDouble(math.NaN()), "NaN"},
		{NewAnyURI("http://x"), "http://x"},
		{NewQName(QName{Prefix: "p", Local: "n"}), "p:n"},
		{NewYearMonthDuration(14), "P1Y2M"},
		{NewYearMonthDuration(0), "P0M"},
		{NewYearMonthDuration(-25), "-P2Y1M"},
		{NewDayTimeDuration(90 * time.Minute), "PT1H30M"},
		{NewDayTimeDuration(0), "PT0S"},
		{NewDayTimeDuration(-26 * time.Hour), "-P1DT2H"},
		{NewDayTimeDuration(36*time.Hour + 15*time.Second), "P1DT12H15S"},
	}
	for _, c := range cases {
		if got := c.val.Lexical(); got != c.want {
			t.Errorf("Lexical(%v %v) = %q, want %q", c.val.T, c.val, got, c.want)
		}
	}
}

func TestDateLexical(t *testing.T) {
	d, err := Cast(NewString("2003-08-19"), TDate)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lexical() != "2003-08-19" {
		t.Errorf("date keeps its lexical form: %q", d.Lexical())
	}
	dt, err := Cast(NewString("2003-08-19T10:30:00"), TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	// Derived form after dropping the original lexical.
	dt.S = ""
	if got := dt.Lexical(); got != "2003-08-19T10:30:00" {
		t.Errorf("derived dateTime lexical = %q", got)
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if NewInteger(7).AsFloat() != 7 {
		t.Error("integer AsFloat")
	}
	if NewDecimal(150, 1).AsFloat() != 15 {
		t.Error("decimal AsFloat")
	}
	if NewDecimal(159, 1).AsInt() != 15 {
		t.Error("decimal AsInt truncates")
	}
	if NewDouble(2.9).AsInt() != 2 {
		t.Error("double AsInt truncates")
	}
	if NewDecimalFloat(2.5).AsFloat() != 2.5 {
		t.Error("float-backed decimal AsFloat")
	}
}

func TestIsNodeMarkers(t *testing.T) {
	if NewInteger(1).IsNode() {
		t.Error("atomic is not a node")
	}
}

// Property: ParseDecimal of a formatted decimal round-trips the value.
func TestDecimalRoundTripQuick(t *testing.T) {
	f := func(units int32, scale uint8) bool {
		s := scale % 6
		a := NewDecimal(int64(units), s)
		parsed, err := ParseDecimal(a.Lexical())
		if err != nil {
			return false
		}
		return parsed.AsFloat() == a.AsFloat()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer lexical form parses back to the same integer.
func TestIntegerLexicalQuick(t *testing.T) {
	f := func(v int64) bool {
		a, err := ParseNumericLexical(NewInteger(v).Lexical(), TInteger)
		return err == nil && a.Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: double lexical form parses back to the same double (except NaN).
func TestDoubleLexicalQuick(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		a, err := ParseNumericLexical(NewDouble(v).Lexical(), TDouble)
		if err != nil {
			return false
		}
		// Lexical formatting is shortest-roundtrip via strconv.
		want, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'G', -1, 64), 64)
		return a.Float() == v || a.Float() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDecimalErrors(t *testing.T) {
	for _, bad := range []string{"", ".", "1.2.3", "abc", "1e5", "--3", "+-3"} {
		if _, err := ParseDecimal(bad); err == nil {
			t.Errorf("ParseDecimal(%q) should fail", bad)
		}
	}
	for _, good := range []struct {
		in   string
		want float64
	}{
		{"1.50", 1.5}, {"+3", 3}, {"-0.25", -0.25}, {".5", 0.5}, {"7.", 7},
		{"123456789012345678901234567890", 1.2345678901234568e29},
	} {
		a, err := ParseDecimal(good.in)
		if err != nil {
			t.Errorf("ParseDecimal(%q): %v", good.in, err)
			continue
		}
		if math.Abs(a.AsFloat()-good.want) > 1e-9*math.Abs(good.want) {
			t.Errorf("ParseDecimal(%q) = %v, want %v", good.in, a.AsFloat(), good.want)
		}
	}
}
