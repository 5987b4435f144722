package xdm

import (
	"math"
	"strconv"
	"strings"
	"time"
)

// Atomic is an atomic value in 32 bytes: an 8-byte header (type code,
// flags, decimal scale, and an xs:duration's months), one 8-byte payload
// word and one string. The payload word holds, by type:
//
//	xs:boolean                     0 or 1
//	xs:integer                     the value
//	xs:decimal held exactly        the digits, value = digits / 10^Scale
//	xs:decimal that does not fit   float64 bits
//	xs:double, xs:float            float64 bits
//	xs:dateTime, xs:date, xs:time  nanoseconds (since the epoch, resp. midnight)
//	xdt:yearMonthDuration          months
//	xdt:dayTimeDuration            nanoseconds
//	xs:duration                    float64 bits of the seconds part
//	xs:QName                       the lengths of the namespace and local parts
//
// S holds the value of the string-like types (xs:string, untypedAtomic,
// anyURI, NOTATION, the g* types, the raw lexical form of the binary types),
// the lexical form a calendar value or xs:duration was cast from, and an
// xs:QName's namespace, local part and prefix, concatenated. Read a value
// through the accessors (Bool, Int, Float, QName, Months), which know the
// layout; only the string-like types read S directly.
//
// A Go word holds a pointer or an integer, never either, so the layout has
// no spare pointer for a value that does not fit: a QName packs its three
// strings into S, and a decimal beyond the scaled int64 range falls back to
// a float64. A value is small enough to pass and box by value.
type Atomic struct {
	T     TypeCode
	flags uint8
	// Scale is the decimal scale of an exact xs:decimal.
	Scale  uint8
	_      uint8
	months int32 // xs:duration's months part
	w      uint64
	S      string
}

// flagExact marks an xs:decimal held exactly as scaled digits.
const flagExact uint8 = 1

// Item is a member of an XDM sequence: either an Atomic value or a Node.
type Item interface {
	// IsNode distinguishes the two kinds of item without reflection.
	IsNode() bool
}

// IsNode reports that an atomic value is not a node.
func (Atomic) IsNode() bool { return false }

// Sequence is a materialized XDM sequence. Nested sequences never occur; the
// data model flattens them on construction.
type Sequence []Item

// --- constructors ---

// NewString returns an xs:string value.
func NewString(s string) Atomic { return Atomic{T: TString, S: s} }

// NewUntyped returns an xs:untypedAtomic value (the typed value of
// schema-less nodes).
func NewUntyped(s string) Atomic { return Atomic{T: TUntyped, S: s} }

// NewBoolean returns an xs:boolean value.
func NewBoolean(b bool) Atomic {
	a := Atomic{T: TBoolean}
	if b {
		a.w = 1
	}
	return a
}

// True and False are the two boolean values.
var (
	True  = NewBoolean(true)
	False = NewBoolean(false)
)

// NewInteger returns an xs:integer value.
func NewInteger(i int64) Atomic { return Atomic{T: TInteger, w: uint64(i)} }

// NewDouble returns an xs:double value.
func NewDouble(f float64) Atomic { return Atomic{T: TDouble, w: math.Float64bits(f)} }

// NewFloat returns an xs:float value.
func NewFloat(f float64) Atomic {
	return Atomic{T: TFloat, w: math.Float64bits(float64(float32(f)))}
}

// NewDecimal returns an exact xs:decimal value i / 10^scale.
func NewDecimal(i int64, scale uint8) Atomic {
	return Atomic{T: TDecimal, flags: flagExact, Scale: scale, w: uint64(i)}
}

// NewDecimalFloat returns an xs:decimal approximated by a float64, used when
// a computation leaves the exact int64-scaled range.
func NewDecimalFloat(f float64) Atomic { return Atomic{T: TDecimal, w: math.Float64bits(f)} }

// NewAnyURI returns an xs:anyURI value.
func NewAnyURI(s string) Atomic { return Atomic{T: TAnyURI, S: s} }

// NewQName returns an xs:QName value. A name with a local part only packs
// without copying; any other concatenates its parts into one string.
func NewQName(q QName) Atomic {
	a := Atomic{T: TQName, w: uint64(len(q.Space)) | uint64(len(q.Local))<<32}
	if q.Space == "" && q.Prefix == "" {
		a.S = q.Local
	} else {
		a.S = q.Space + q.Local + q.Prefix
	}
	return a
}

// NewDateTime returns an xs:dateTime from a time.Time; lex is the original
// lexical form (may be empty, in which case one is derived on demand).
func NewDateTime(t time.Time, lex string) Atomic {
	return Atomic{T: TDateTime, w: uint64(t.UnixNano()), S: lex}
}

// NewDate returns an xs:date anchored at midnight UTC of the given day.
func NewDate(t time.Time, lex string) Atomic {
	return Atomic{T: TDate, w: uint64(t.UnixNano()), S: lex}
}

// NewTime returns an xs:time as nanoseconds since midnight.
func NewTime(ns int64, lex string) Atomic { return Atomic{T: TTime, w: uint64(ns), S: lex} }

// NewYearMonthDuration returns an xdt:yearMonthDuration of the given months.
func NewYearMonthDuration(months int64) Atomic {
	return Atomic{T: TYearMonthDuration, w: uint64(months)}
}

// NewDayTimeDuration returns an xdt:dayTimeDuration of the given duration.
func NewDayTimeDuration(d time.Duration) Atomic {
	return Atomic{T: TDayTimeDuration, w: uint64(d)}
}

// newDuration returns an xs:duration of months and seconds with the lexical
// form lex (may be empty).
func newDuration(months int32, seconds float64, lex string) Atomic {
	return Atomic{T: TDuration, months: months, w: math.Float64bits(seconds), S: lex}
}

// --- accessors ---

// Bool returns an xs:boolean's value.
func (a Atomic) Bool() bool { return a.w != 0 }

// Int returns the integer payload: an xs:integer, an exact decimal's
// digits, a calendar value's nanoseconds, a yearMonthDuration's months or a
// dayTimeDuration's nanoseconds. AsInt converts a number instead.
func (a Atomic) Int() int64 { return int64(a.w) }

// Float returns the float64 payload: an xs:double or xs:float, a decimal
// that does not fit the scaled range, or an xs:duration's seconds part.
// AsFloat converts a number instead.
func (a Atomic) Float() float64 { return math.Float64frombits(a.w) }

// Exact reports whether an xs:decimal is held exactly, as Int() / 10^Scale.
func (a Atomic) Exact() bool { return a.flags&flagExact != 0 }

// Months returns an xs:duration's months part.
func (a Atomic) Months() int64 { return int64(a.months) }

// QName returns an xs:QName's name.
func (a Atomic) QName() QName {
	ns, nl := int(a.w&0xffffffff), int(a.w>>32)
	if ns+nl > len(a.S) {
		return QName{}
	}
	return QName{Space: a.S[:ns], Local: a.S[ns : ns+nl], Prefix: a.S[ns+nl:]}
}

// AsFloat returns the numeric value as float64. Valid for numeric types.
func (a Atomic) AsFloat() float64 {
	switch a.T {
	case TInteger:
		return float64(a.Int())
	case TDecimal:
		if !a.Exact() {
			return a.Float()
		}
		if i := a.Int(); i > -1<<53 && i < 1<<53 && a.Scale <= 22 {
			return float64(i) / pow10f(a.Scale) // one rounding of two exact operands
		}
		f, _ := strconv.ParseFloat(a.decimalLexical(), 64)
		return f
	default:
		return a.Float()
	}
}

// AsInt returns the value as int64, truncating decimals/doubles toward zero.
func (a Atomic) AsInt() int64 {
	switch a.T {
	case TInteger:
		return a.Int()
	case TDecimal:
		if a.Exact() {
			return a.Int() / pow10i(a.Scale)
		}
		return int64(a.Float())
	default:
		return int64(a.Float())
	}
}

// Integral returns a number's value when it is an integer within the int64
// range: an xs:integer, an exact decimal without a fraction, or an integral
// double or float. Valid for numeric types.
func (a Atomic) Integral() (int64, bool) {
	switch {
	case a.T == TInteger:
		return a.Int(), true
	case a.T == TDecimal && a.Exact() && a.Scale <= 18:
		if p := pow10i(a.Scale); a.Int()%p == 0 {
			return a.Int() / p, true
		}
		return 0, false
	}
	f := a.AsFloat()
	if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		return int64(f), true
	}
	return 0, false
}

func pow10f(n uint8) float64 {
	f := 1.0
	for ; n > 0; n-- {
		f *= 10
	}
	return f
}

func pow10i(n uint8) int64 {
	v := int64(1)
	for ; n > 0; n-- {
		v *= 10
	}
	return v
}

// Lexical returns the canonical lexical representation of the value, i.e.
// its fn:string() form.
func (a Atomic) Lexical() string {
	switch a.T {
	case TString, TUntyped, TAnyURI, THexBinary, TBase64Binary, TNotation:
		return a.S
	case TBoolean:
		if a.Bool() {
			return "true"
		}
		return "false"
	case TInteger:
		return strconv.FormatInt(a.Int(), 10)
	case TDecimal:
		return a.decimalLexical()
	case TDouble, TFloat:
		return floatLexical(a.Float(), a.T == TFloat)
	case TQName:
		return a.QName().String()
	case TDateTime:
		if a.S != "" {
			return a.S
		}
		return time.Unix(0, a.Int()).UTC().Format("2006-01-02T15:04:05")
	case TDate:
		if a.S != "" {
			return a.S
		}
		return time.Unix(0, a.Int()).UTC().Format("2006-01-02")
	case TTime:
		if a.S != "" {
			return a.S
		}
		ns := a.Int()
		return time.Unix(0, ns).UTC().Format("15:04:05")
	case TGYearMonth, TGYear, TGMonthDay, TGDay, TGMonth:
		return a.S
	case TYearMonthDuration:
		return ymDurationLexical(a.Int())
	case TDayTimeDuration:
		return dtDurationLexical(a.Int())
	case TDuration:
		if a.S != "" {
			return a.S
		}
		return durationLexical(a.Months(), a.Float())
	default:
		return a.S
	}
}

func (a Atomic) decimalLexical() string {
	if !a.Exact() {
		s := strconv.FormatFloat(a.Float(), 'f', -1, 64)
		return s
	}
	if a.Scale == 0 {
		return strconv.FormatInt(a.Int(), 10)
	}
	neg := a.Int() < 0
	u := a.Int()
	if neg {
		u = -u
	}
	s := strconv.FormatInt(u, 10)
	for len(s) <= int(a.Scale) {
		s = "0" + s
	}
	dot := len(s) - int(a.Scale)
	out := s[:dot] + "." + s[dot:]
	out = strings.TrimRight(out, "0")
	out = strings.TrimSuffix(out, ".")
	if out == "" || out == "-" {
		out = "0"
	}
	if neg {
		out = "-" + out
	}
	return out
}

// floatLexical renders double/float per the XQuery canonical-ish rules: NaN,
// INF, -INF; integral values without exponent when in a readable range.
// The exponent form is the canonical one, a mantissa with a fraction digit
// and an exponent without sign or leading zero: 1.0E300, 1.5E-7. (Values
// from 1e-6 to 1e-5, and fractions of 1e6 or more, still take the exponent
// form where XQuery writes a decimal.) An xs:float takes the shortest
// digits that read back as the same float32, under the same rules.
func floatLexical(f float64, isFloat bool) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	}
	bits := 64
	if isFloat {
		bits = 32
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, bits)
	}
	s := strconv.FormatFloat(f, 'G', -1, bits)
	mant, exp, ok := strings.Cut(s, "E")
	if !ok {
		return s
	}
	if !strings.Contains(mant, ".") {
		mant += ".0"
	}
	e, _ := strconv.Atoi(exp) // 'G' writes a signed decimal exponent
	return mant + "E" + strconv.Itoa(e)
}

func ymDurationLexical(months int64) string {
	if months == 0 {
		return "P0M"
	}
	neg := months < 0
	if neg {
		months = -months
	}
	y, m := months/12, months%12
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteByte('P')
	if y > 0 {
		b.WriteString(strconv.FormatInt(y, 10))
		b.WriteByte('Y')
	}
	if m > 0 || y == 0 {
		b.WriteString(strconv.FormatInt(m, 10))
		b.WriteByte('M')
	}
	return b.String()
}

// durationLexical renders an xs:duration from its two parts, which share
// their sign.
func durationLexical(months int64, seconds float64) string {
	ns := int64(math.Round(seconds * float64(time.Second)))
	switch {
	case months == 0:
		return dtDurationLexical(ns)
	case ns == 0:
		return ymDurationLexical(months)
	case months < 0:
		return "-" + durationLexical(-months, -seconds)
	}
	return ymDurationLexical(months) + dtDurationLexical(ns)[1:]
}

func dtDurationLexical(ns int64) string {
	if ns == 0 {
		return "PT0S"
	}
	neg := ns < 0
	if neg {
		ns = -ns
	}
	d := ns / int64(24*time.Hour)
	ns %= int64(24 * time.Hour)
	h := ns / int64(time.Hour)
	ns %= int64(time.Hour)
	m := ns / int64(time.Minute)
	ns %= int64(time.Minute)
	secs := float64(ns) / float64(time.Second)
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteByte('P')
	if d > 0 {
		b.WriteString(strconv.FormatInt(d, 10))
		b.WriteByte('D')
	}
	if h > 0 || m > 0 || secs > 0 {
		b.WriteByte('T')
		if h > 0 {
			b.WriteString(strconv.FormatInt(h, 10))
			b.WriteByte('H')
		}
		if m > 0 {
			b.WriteString(strconv.FormatInt(m, 10))
			b.WriteByte('M')
		}
		if secs > 0 {
			b.WriteString(strconv.FormatFloat(secs, 'f', -1, 64))
			b.WriteByte('S')
		}
	} else if d == 0 {
		b.WriteString("T0S")
	}
	return b.String()
}
