package functions

import (
	"math"
	"strings"
	"testing"
	"time"

	"xqgo/internal/xdm"
)

// stubCtx implements Context for direct function tests.
type stubCtx struct {
	item xdm.Item
	pos  int64
	size int64
}

func (s *stubCtx) ContextItem() (xdm.Item, bool) { return s.item, s.item != nil }
func (s *stubCtx) Position() int64               { return s.pos }
func (s *stubCtx) Size() (int64, error)          { return s.size, nil }
func (s *stubCtx) Doc(uri string) (xdm.Node, error) {
	return nil, xdm.Errf("FODC0002", "no doc %q", uri)
}
func (s *stubCtx) Collection(string) (xdm.Sequence, error) {
	return nil, xdm.Errf("FODC0004", "no collections")
}
func (s *stubCtx) CurrentDateTime() xdm.Atomic {
	return xdm.NewDateTime(time.Date(2004, 9, 14, 12, 0, 0, 0, time.UTC), "")
}

func call(t *testing.T, name string, args ...xdm.Sequence) (xdm.Sequence, error) {
	t.Helper()
	f, err := Lookup(name, len(args))
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	if f == nil {
		t.Fatalf("unknown function %s", name)
	}
	return f.Call(&stubCtx{}, args)
}

func one(items ...xdm.Item) xdm.Sequence { return items }

func str(s string) xdm.Sequence  { return one(xdm.NewString(s)) }
func num(i int64) xdm.Sequence   { return one(xdm.NewInteger(i)) }
func dbl(f float64) xdm.Sequence { return one(xdm.NewDouble(f)) }

// expectStr calls a function and compares the single string/lexical result.
func expectStr(t *testing.T, want, name string, args ...xdm.Sequence) {
	t.Helper()
	out, err := call(t, name, args...)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	var parts []string
	for _, it := range out {
		parts = append(parts, xdm.StringValue(it))
	}
	if got := strings.Join(parts, "|"); got != want {
		t.Errorf("%s(...) = %q, want %q", name, got, want)
	}
}

func TestStringFunctions(t *testing.T) {
	expectStr(t, "ab", "concat", str("a"), str("b"))
	expectStr(t, "a-b-c", "string-join", one(xdm.NewString("a"), xdm.NewString("b"), xdm.NewString("c")), str("-"))
	expectStr(t, "5", "string-length", str("héllo"))
	expectStr(t, "a b c", "normalize-space", str("  a \t b\n c "))
	expectStr(t, "ABC", "upper-case", str("abc"))
	expectStr(t, "abc", "lower-case", str("ABC"))
	expectStr(t, "true", "contains", str("banana"), str("nan"))
	expectStr(t, "false", "contains", str("banana"), str("xyz"))
	expectStr(t, "true", "starts-with", str("banana"), str("ba"))
	expectStr(t, "true", "ends-with", str("banana"), str("na"))
	expectStr(t, "ban", "substring", str("banana"), num(1), num(3))
	expectStr(t, "nana", "substring", str("banana"), num(3))
	expectStr(t, "ba", "substring-before", str("banana"), str("na"))
	expectStr(t, "ana", "substring-after", str("banana"), str("ban"))
	expectStr(t, "", "substring-before", str("banana"), str("zz"))
	expectStr(t, "BAnAnA", "translate", str("banana"), str("ban"), str("BAn"))
	expectStr(t, "bnn", "translate", str("banana"), str("a"), str(""))
	expectStr(t, "-1", "compare", str("a"), str("b"))
	expectStr(t, "0", "compare", str("a"), str("a"))
	expectStr(t, "true", "matches", str("banana"), str("^b.*a$"))
	expectStr(t, "bXnXnX", "replace", str("banana"), str("a"), str("X"))
	expectStr(t, "a|b|c", "tokenize", str("a,b,c"), str(","))
	expectStr(t, "65|66", "string-to-codepoints", str("AB"))
	expectStr(t, "AB", "codepoints-to-string", one(xdm.NewInteger(65), xdm.NewInteger(66)))
}

func TestSequenceFunctions(t *testing.T) {
	expectStr(t, "3", "count", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)))
	expectStr(t, "0", "count", one())
	expectStr(t, "true", "empty", one())
	expectStr(t, "false", "empty", num(1))
	expectStr(t, "true", "exists", num(1))
	expectStr(t, "1|2", "distinct-values", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(1), xdm.NewDouble(2)))
	expectStr(t, "a", "distinct-values", one(xdm.NewString("a"), xdm.NewUntyped("a")))
	expectStr(t, "2|4", "index-of", one(xdm.NewInteger(5), xdm.NewInteger(7), xdm.NewInteger(6), xdm.NewInteger(7)), num(7))
	expectStr(t, "1|9|2", "insert-before", one(xdm.NewInteger(1), xdm.NewInteger(2)), num(2), num(9))
	expectStr(t, "1|3", "remove", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)), num(2))
	expectStr(t, "3|2|1", "reverse", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)))
	expectStr(t, "2|3", "subsequence", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)), num(2))
	expectStr(t, "2", "subsequence", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)), num(2), num(1))
	// F&O §15.1.10 edges: the window the runtime's lazy form keeps too.
	three := one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3))
	expectStr(t, "", "subsequence", three, dbl(math.NaN()))
	expectStr(t, "", "subsequence", three, dbl(math.Inf(1)))
	expectStr(t, "1|2|3", "subsequence", three, num(1), dbl(math.Inf(1)))
	expectStr(t, "2|3", "subsequence", three, num(2), num(math.MaxInt64))
	expectStr(t, "1", "subsequence", three, dbl(-0.7), dbl(2.5))
	expectStr(t, "2|3", "subsequence", three, one(xdm.NewUntyped("2")))
	if _, err := call(t, "subsequence", three, str("2")); !xdm.IsCode(err, "XPTY0004") {
		t.Errorf("subsequence with a string start: %v, want err:XPTY0004", err)
	}
	expectStr(t, "6", "sum", one(xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)))
	expectStr(t, "0", "sum", one())
	expectStr(t, "2", "avg", one(xdm.NewInteger(1), xdm.NewInteger(3)))
	expectStr(t, "", "avg", one())
	expectStr(t, "3", "max", one(xdm.NewInteger(1), xdm.NewInteger(3), xdm.NewInteger(2)))
	expectStr(t, "1", "min", one(xdm.NewInteger(1), xdm.NewInteger(3), xdm.NewInteger(2)))
	expectStr(t, "c", "max", one(xdm.NewString("a"), xdm.NewString("c")))
	expectStr(t, "true", "deep-equal", num(1), dbl(1))
	expectStr(t, "false", "deep-equal", num(1), num(2))

	if _, err := call(t, "zero-or-one", one(xdm.NewInteger(1), xdm.NewInteger(2))); err == nil {
		t.Error("zero-or-one of 2 items must fail")
	}
	if _, err := call(t, "one-or-more", one()); err == nil {
		t.Error("one-or-more of () must fail")
	}
	if _, err := call(t, "exactly-one", one()); err == nil {
		t.Error("exactly-one of () must fail")
	}
}

func TestNumericFunctions(t *testing.T) {
	expectStr(t, "3", "abs", num(-3))
	expectStr(t, "2", "floor", dbl(2.7))
	expectStr(t, "-3", "floor", dbl(-2.3))
	expectStr(t, "3", "ceiling", dbl(2.3))
	expectStr(t, "-2", "ceiling", dbl(-2.7))
	expectStr(t, "3", "round", dbl(2.5))
	expectStr(t, "2", "round", dbl(2.4))
	expectStr(t, "2", "round-half-to-even", dbl(2.5))
	expectStr(t, "4", "round-half-to-even", dbl(3.5))
	expectStr(t, "42", "number", str("42"))
	out, err := call(t, "number", str("not-a-number"))
	if err != nil || len(out) != 1 || !math.IsNaN(out[0].(xdm.Atomic).Float()) {
		t.Errorf("number of garbage should be NaN: %v %v", out, err)
	}
	// Numeric functions preserve the input type family.
	out, _ = call(t, "abs", num(-3))
	if out[0].(xdm.Atomic).T != xdm.TInteger {
		t.Error("abs of integer is an integer")
	}
}

func TestBooleanFunctions(t *testing.T) {
	expectStr(t, "true", "true")
	expectStr(t, "false", "false")
	expectStr(t, "false", "not", one(xdm.True))
	expectStr(t, "true", "not", one())
	expectStr(t, "true", "boolean", str("x"))
	expectStr(t, "false", "boolean", str(""))
}

func TestDateFunctions(t *testing.T) {
	expectStr(t, "2002-05-20", "date", str("2002-05-20"))
	d, _ := xdm.Cast(xdm.NewString("2002-05-20"), xdm.TDate)
	dur, _ := xdm.Cast(xdm.NewString("P10D"), xdm.TDayTimeDuration)
	out, err := call(t, "add-date", one(d), one(dur))
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Unix(0, out[0].(xdm.Atomic).Int()).UTC().Day(); got != 30 {
		t.Errorf("add-date day = %d", got)
	}
	expectStr(t, "2002", "year-from-date", one(d))
	expectStr(t, "5", "month-from-date", one(d))
	expectStr(t, "20", "day-from-date", one(d))
	dt, _ := xdm.Cast(xdm.NewString("2004-09-14T10:30:00"), xdm.TDateTime)
	expectStr(t, "10", "hours-from-dateTime", one(dt))
	expectStr(t, "30", "minutes-from-dateTime", one(dt))
	// current-* use the stable context clock.
	expectStr(t, "2004-09-14", "current-date")
}

func TestNodeAndQNameFunctions(t *testing.T) {
	expectStr(t, "n", "local-name-from-QName", one(xdm.NewQName(xdm.Name("u", "n"))))
	expectStr(t, "u", "namespace-uri-from-QName", one(xdm.NewQName(xdm.Name("u", "n"))))
	out, err := call(t, "QName", str("urn:x"), str("p:loc"))
	if err != nil {
		t.Fatal(err)
	}
	q := out[0].(xdm.Atomic).QName()
	if q.Space != "urn:x" || q.Local != "loc" || q.Prefix != "p" {
		t.Errorf("QName = %+v", q)
	}
}

func TestErrorAndTrace(t *testing.T) {
	_, err := call(t, "error")
	if err == nil || !xdm.IsCode(err, "FOER0000") {
		t.Errorf("fn:error() = %v", err)
	}
	_, err = call(t, "error", str("MYERR"), str("custom"))
	if err == nil || !xdm.IsCode(err, "MYERR") {
		t.Errorf("fn:error with code = %v", err)
	}
}

func TestLookupArity(t *testing.T) {
	if _, err := Lookup("concat", 1); err == nil {
		t.Error("concat/1 must be an arity error")
	}
	if f, err := Lookup("concat", 7); err != nil || f == nil {
		t.Error("concat is variadic")
	}
	if f, _ := Lookup("nosuch", 0); f != nil {
		t.Error("unknown function")
	}
	if f, _ := Lookup("count", 1); f == nil {
		t.Error("fn:count/1 is registered")
	}
}

func TestPropertyTable(t *testing.T) {
	// The declarative property table drives the optimizer: spot-check it.
	doc, _ := Lookup("doc", 1)
	if doc.Props.Reach != ReachRoot || doc.Props.ReturnType().String() != "document-node()?" {
		t.Error("fn:doc returns a document root")
	}
	cur, _ := Lookup("current-dateTime", 0)
	if cur.Props.Deterministic {
		t.Error("current-dateTime is not deterministic")
	}
	cnt, _ := Lookup("count", 1)
	if !cnt.Props.Deterministic || cnt.Props.CreatesNodes {
		t.Error("count is a pure function")
	}
	pos, _ := Lookup("string", 0)
	if !pos.Props.UsesContext {
		t.Error("fn:string() without arguments uses the context")
	}
}

// TestRecordShape checks what every record must satisfy: a focus default
// needs an argument to omit, and argument uses name existing positions.
func TestRecordShape(t *testing.T) {
	n := 0
	for f := range Each() {
		n++
		if f.Props.UsesContext && (f.MinArgs != 0 || f.MaxArgs == 0) {
			t.Errorf("fn:%s: UsesContext needs an omissible argument, arity %s", f.Name, arityString(f))
		}
		if f.MaxArgs >= 0 && len(f.Props.Args) > f.MaxArgs {
			t.Errorf("fn:%s: %d argument uses for at most %d arguments", f.Name, len(f.Props.Args), f.MaxArgs)
		}
	}
	if n != len(registry) {
		t.Errorf("Each yielded %d built-ins, the registry has %d", n, len(registry))
	}
}

func TestContextUsingFunctions(t *testing.T) {
	ctx := &stubCtx{item: xdm.NewString("ctx-value"), pos: 2, size: 5}
	f, _ := Lookup("string", 0)
	out, err := f.Call(ctx, nil)
	if err != nil || xdm.StringValue(out[0]) != "ctx-value" {
		t.Errorf("fn:string() = %v, %v", out, err)
	}
	f, _ = Lookup("string-length", 0)
	out, err = f.Call(ctx, nil)
	if err != nil || out[0].(xdm.Atomic).Int() != 9 {
		t.Errorf("fn:string-length() = %v, %v", out, err)
	}
	// Without a context item: XPDY0002.
	f, _ = Lookup("string", 0)
	if _, err := f.Call(&stubCtx{}, nil); !xdm.IsCode(err, "XPDY0002") {
		t.Errorf("fn:string() without context = %v", err)
	}
}
