package xdm

import (
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Cast converts an atomic value to the target type, following the XQuery
// casting table. Casting from xs:untypedAtomic and xs:string goes through the
// lexical space of the target; numeric casts convert values. An impossible or
// ill-formed cast returns an error (err:FORG0001 / err:XPTY0004).
func Cast(a Atomic, to TypeCode) (Atomic, error) {
	if a.T == to || to == TAnyAtomic {
		return a, nil
	}
	switch to {
	case TString:
		return NewString(a.Lexical()), nil
	case TUntyped:
		return NewUntyped(a.Lexical()), nil
	case TAnyURI:
		switch a.T {
		case TString, TUntyped:
			return NewAnyURI(strings.TrimSpace(a.S)), nil
		}
		return Atomic{}, ErrType("cannot cast %s to xs:anyURI", a.T)
	case TBoolean:
		return castToBoolean(a)
	case TInteger, TDecimal, TFloat, TDouble:
		return castToNumeric(a, to)
	case TDateTime, TDate, TTime:
		return castToCalendar(a, to)
	case TGYearMonth, TGYear, TGMonthDay, TGDay, TGMonth:
		switch a.T {
		case TString, TUntyped:
			return Atomic{T: to, S: strings.TrimSpace(a.S)}, nil
		case TDateTime, TDate:
			return Atomic{T: to, S: a.Lexical()}, nil
		}
		return Atomic{}, ErrType("cannot cast %s to %s", a.T, to)
	case TDuration, TYearMonthDuration, TDayTimeDuration:
		return castToDuration(a, to)
	case TQName:
		switch a.T {
		case TString, TUntyped:
			lex := strings.TrimSpace(a.S)
			prefix, local := SplitLexical(lex)
			if !isNCName(local) || strings.Contains(lex, ":") && !isNCName(prefix) {
				return Atomic{}, ErrCast("invalid xs:QName literal %q", a.S)
			}
			return NewQName(QName{Prefix: prefix, Local: local}), nil
		}
		return Atomic{}, ErrType("cannot cast %s to xs:QName", a.T)
	case THexBinary, TBase64Binary:
		switch a.T {
		case TString, TUntyped, THexBinary, TBase64Binary:
			return Atomic{T: to, S: a.S}, nil
		}
		return Atomic{}, ErrType("cannot cast %s to %s", a.T, to)
	}
	return Atomic{}, ErrType("cannot cast %s to %s", a.T, to)
}

// isNCName reports whether s is a name without a colon, as the QName
// lexical space needs for a prefix and a local part.
func isNCName(s string) bool {
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || r == '_':
		case i > 0 && (unicode.IsDigit(r) || r == '.' || r == '-' || unicode.Is(unicode.Mn, r)):
		default:
			return false
		}
	}
	return s != ""
}

// Castable reports whether Cast would succeed.
func Castable(a Atomic, to TypeCode) bool {
	_, err := Cast(a, to)
	return err == nil
}

func castToBoolean(a Atomic) (Atomic, error) {
	switch a.T {
	case TString, TUntyped:
		switch strings.TrimSpace(a.S) {
		case "true", "1":
			return True, nil
		case "false", "0":
			return False, nil
		}
		return Atomic{}, ErrCast("invalid xs:boolean literal %q", a.S)
	case TInteger:
		return NewBoolean(a.Int() != 0), nil
	case TDecimal, TDouble, TFloat:
		f := a.AsFloat()
		return NewBoolean(f != 0 && !math.IsNaN(f)), nil
	}
	return Atomic{}, ErrType("cannot cast %s to xs:boolean", a.T)
}

func castToNumeric(a Atomic, to TypeCode) (Atomic, error) {
	switch a.T {
	case TString, TUntyped:
		return ParseNumericLexical(strings.TrimSpace(a.S), to)
	case TBoolean:
		var v int64
		if a.Bool() {
			v = 1
		}
		switch to {
		case TInteger:
			return NewInteger(v), nil
		case TDecimal:
			return NewDecimal(v, 0), nil
		case TFloat:
			return NewFloat(float64(v)), nil
		case TDouble:
			return NewDouble(float64(v)), nil
		}
	case TInteger, TDecimal, TFloat, TDouble:
		return convertNumeric(a, to)
	}
	return Atomic{}, ErrType("cannot cast %s to %s", a.T, to)
}

// convertNumeric converts between the four numeric types.
func convertNumeric(a Atomic, to TypeCode) (Atomic, error) {
	switch to {
	case TInteger:
		f := a.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Atomic{}, ErrCast("cannot cast %s to xs:integer", a.Lexical())
		}
		if a.T == TDecimal && a.Exact() {
			return NewInteger(a.Int() / pow10i(a.Scale)), nil
		}
		if f >= math.MaxInt64 || f <= math.MinInt64 {
			return Atomic{}, ErrOverflow()
		}
		return NewInteger(int64(math.Trunc(f))), nil
	case TDecimal:
		switch a.T {
		case TInteger:
			return NewDecimal(a.Int(), 0), nil
		case TDecimal:
			return a, nil
		default:
			f := a.AsFloat()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return Atomic{}, ErrCast("cannot cast %s to xs:decimal", a.Lexical())
			}
			return NewDecimalFloat(f), nil
		}
	case TFloat:
		return NewFloat(a.AsFloat()), nil
	case TDouble:
		return NewDouble(a.AsFloat()), nil
	}
	return Atomic{}, ErrType("not numeric: %s", to)
}

// ParseNumericLexical parses a numeric literal in the lexical space of the
// target type.
func ParseNumericLexical(s string, to TypeCode) (Atomic, error) {
	if s == "" {
		return Atomic{}, ErrCast("empty string is not a valid %s", to)
	}
	switch to {
	case TInteger:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Atomic{}, ErrCast("invalid xs:integer literal %q", s)
		}
		return NewInteger(i), nil
	case TDecimal:
		return ParseDecimal(s)
	case TFloat, TDouble:
		switch s {
		case "INF", "+INF":
			return Atomic{T: to, w: math.Float64bits(math.Inf(1))}, nil
		case "-INF":
			return Atomic{T: to, w: math.Float64bits(math.Inf(-1))}, nil
		case "NaN":
			return Atomic{T: to, w: math.Float64bits(math.NaN())}, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Atomic{}, ErrCast("invalid %s literal %q", to, s)
		}
		if to == TFloat {
			return NewFloat(f), nil
		}
		return NewDouble(f), nil
	}
	return Atomic{}, ErrType("not numeric: %s", to)
}

// ParseDecimal parses the xs:decimal lexical space ([+-]?digits(.digits)?),
// producing an exact scaled-int64 decimal when it fits.
func ParseDecimal(s string) (Atomic, error) {
	t := s
	neg := false
	if strings.HasPrefix(t, "+") {
		t = t[1:]
	} else if strings.HasPrefix(t, "-") {
		neg = true
		t = t[1:]
	}
	intPart, fracPart := t, ""
	if i := strings.IndexByte(t, '.'); i >= 0 {
		intPart, fracPart = t[:i], t[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return Atomic{}, ErrCast("invalid xs:decimal literal %q", s)
	}
	for _, r := range intPart + fracPart {
		if r < '0' || r > '9' {
			return Atomic{}, ErrCast("invalid xs:decimal literal %q", s)
		}
	}
	// Trim trailing zeros in the fraction to keep the scale small.
	fracPart = strings.TrimRight(fracPart, "0")
	digits := strings.TrimLeft(intPart, "0") + fracPart
	if len(digits) <= 18 {
		v, _ := strconv.ParseInt(intPart+fracPart, 10, 64)
		if neg {
			v = -v
		}
		return NewDecimal(v, uint8(len(fracPart))), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Atomic{}, ErrCast("invalid xs:decimal literal %q", s)
	}
	return NewDecimalFloat(f), nil
}

func castToCalendar(a Atomic, to TypeCode) (Atomic, error) {
	switch a.T {
	case TString, TUntyped:
		return ParseCalendarLexical(strings.TrimSpace(a.S), to)
	case TDateTime:
		t := time.Unix(0, a.Int()).UTC()
		switch to {
		case TDate:
			day := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
			return NewDate(day, ""), nil
		case TTime:
			midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
			return NewTime(t.Sub(midnight).Nanoseconds(), ""), nil
		}
	case TDate:
		if to == TDateTime {
			return NewDateTime(time.Unix(0, a.Int()).UTC(), ""), nil
		}
	}
	return Atomic{}, ErrType("cannot cast %s to %s", a.T, to)
}

// calendar layouts tried in order for each target type.
var calendarLayouts = map[TypeCode][]string{
	TDateTime: {
		"2006-01-02T15:04:05.999999999Z07:00",
		"2006-01-02T15:04:05.999999999",
	},
	TDate: {"2006-01-02Z07:00", "2006-01-02"},
	TTime: {"15:04:05.999999999Z07:00", "15:04:05.999999999"},
}

// ParseCalendarLexical parses xs:dateTime / xs:date / xs:time lexical forms.
func ParseCalendarLexical(s string, to TypeCode) (Atomic, error) {
	for _, layout := range calendarLayouts[to] {
		t, err := time.Parse(layout, s)
		if err != nil {
			continue
		}
		switch to {
		case TDateTime:
			return NewDateTime(t.UTC(), s), nil
		case TDate:
			return NewDate(t.UTC(), s), nil
		case TTime:
			midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
			return NewTime(t.Sub(midnight).Nanoseconds(), s), nil
		}
	}
	return Atomic{}, ErrCast("invalid %s literal %q", to, s)
}

func castToDuration(a Atomic, to TypeCode) (Atomic, error) {
	switch a.T {
	case TString, TUntyped:
		months, ns, err := parseDurationLexical(strings.TrimSpace(a.S))
		if err != nil {
			return Atomic{}, err
		}
		switch to {
		case TYearMonthDuration:
			if ns != 0 {
				return Atomic{}, ErrCast("%q has a day/time part; not a yearMonthDuration", a.S)
			}
			return NewYearMonthDuration(months), nil
		case TDayTimeDuration:
			if months != 0 {
				return Atomic{}, ErrCast("%q has a year/month part; not a dayTimeDuration", a.S)
			}
			return NewDayTimeDuration(time.Duration(ns)), nil
		default:
			return durationOf(months, float64(ns)/float64(time.Second), a.S)
		}
	case TDuration, TYearMonthDuration, TDayTimeDuration:
		// Inter-duration casts: keep the relevant component.
		months, seconds := durParts(a)
		switch to {
		case TYearMonthDuration:
			return NewYearMonthDuration(months), nil
		case TDayTimeDuration:
			if a.T == TDayTimeDuration {
				return a, nil
			}
			return NewDayTimeDuration(time.Duration(math.Round(seconds * float64(time.Second)))), nil
		default:
			return durationOf(months, seconds, "")
		}
	}
	return Atomic{}, ErrType("cannot cast %s to %s", a.T, to)
}

// durationOf returns an xs:duration, or err:FODT0002 when its months do
// not fit the value's 32-bit months part.
func durationOf(months int64, seconds float64, lex string) (Atomic, error) {
	if months != int64(int32(months)) {
		return Atomic{}, Errf("FODT0002", "xs:duration of %d months overflows", months)
	}
	return newDuration(int32(months), seconds, lex), nil
}

// parseDurationLexical parses the ISO 8601 duration form
// [-]PnYnMnDTnHnMnS into (months, nanoseconds).
func parseDurationLexical(s string) (months, ns int64, err error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if !strings.HasPrefix(s, "P") {
		return 0, 0, ErrCast("invalid duration %q", orig)
	}
	s = s[1:]
	datePart, timePart := s, ""
	if i := strings.IndexByte(s, 'T'); i >= 0 {
		datePart, timePart = s[:i], s[i+1:]
	}
	if datePart == "" && timePart == "" {
		return 0, 0, ErrCast("invalid duration %q", orig)
	}
	var seenAny bool
	scan := func(part string, isTime bool) error {
		num := ""
		for i := 0; i < len(part); i++ {
			c := part[i]
			if (c >= '0' && c <= '9') || c == '.' {
				num += string(c)
				continue
			}
			if num == "" {
				return ErrCast("invalid duration %q", orig)
			}
			v, ferr := strconv.ParseFloat(num, 64)
			if ferr != nil {
				return ErrCast("invalid duration %q", orig)
			}
			seenAny = true
			var unit float64 // nanoseconds per unit; 0 for months
			switch {
			case !isTime && c == 'Y':
				v *= 12
			case !isTime && c == 'M':
			case !isTime && c == 'D':
				unit = 24 * float64(time.Hour)
			case isTime && c == 'H':
				unit = float64(time.Hour)
			case isTime && c == 'M':
				unit = float64(time.Minute)
			case isTime && c == 'S':
				unit = float64(time.Second)
			default:
				return ErrCast("invalid duration %q", orig)
			}
			total, part := &months, v
			if unit != 0 {
				total, part = &ns, math.Round(v*unit)
			}
			sum, ok := addI64(*total, int64(part))
			if part >= 1<<63 || !ok {
				return Errf("FODT0002", "duration %q overflows", orig)
			}
			*total = sum
			num = ""
		}
		if num != "" {
			return ErrCast("invalid duration %q", orig)
		}
		return nil
	}
	if err := scan(datePart, false); err != nil {
		return 0, 0, err
	}
	if err := scan(timePart, true); err != nil {
		return 0, 0, err
	}
	if !seenAny {
		return 0, 0, ErrCast("invalid duration %q", orig)
	}
	if neg {
		months, ns = -months, -ns
	}
	return months, ns, nil
}

// Promote applies the numeric type-promotion rules: the "common type" for a
// pair of numeric operands (integer -> decimal -> float -> double). It also
// promotes xs:anyURI to xs:string for comparisons.
func Promote(t1, t2 TypeCode) TypeCode {
	rank := func(t TypeCode) int {
		switch t {
		case TInteger:
			return 1
		case TDecimal:
			return 2
		case TFloat:
			return 3
		case TDouble:
			return 4
		}
		return 0
	}
	if r1, r2 := rank(t1), rank(t2); r1 > 0 && r2 > 0 {
		if r1 >= r2 {
			return t1
		}
		return t2
	}
	if t1 == TAnyURI && t2 == TString || t2 == TAnyURI && t1 == TString {
		return TString
	}
	return t1
}
