package runtime

import (
	"strings"
	"testing"

	"xqgo/internal/functions"
	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

// foldFuncs are the built-ins that functions.Fold computes.
var foldFuncs = []string{"sum", "avg", "min", "max", "distinct-values"}

// foldOutcome is a result's serialized bytes, or the code of its error.
type foldOutcome struct{ out, code string }

func outcomeOf(seq xdm.Sequence, err error) foldOutcome {
	if err != nil {
		return foldOutcome{code: xdm.CodeOf(err)}
	}
	s, err := serializer.SequenceToString(seq)
	if err != nil {
		return foldOutcome{code: "serialize: " + err.Error()}
	}
	return foldOutcome{out: s}
}

// evalFold evaluates fn(arg) with $x bound to x and the context item at the
// root of doc.
func evalFold(t testing.TB, fn, arg string, x xdm.Sequence, doc string, opts Options) foldOutcome {
	t.Helper()
	q, err := xqparse.Parse("declare variable $x external; " + fn + "(" + arg + ")")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	dyn := &Dynamic{Vars: map[string]xdm.Sequence{"x": x}}
	if doc != "" {
		d, err := xmlparse.ParseString(doc, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dyn.ContextItem = d.RootNode()
	}
	return outcomeOf(p.Eval(dyn))
}

// callFold is the registry's Call of fn over a materialized argument.
func callFold(fn string, arg xdm.Sequence) foldOutcome {
	f, _ := functions.Lookup(fn, 1)
	return outcomeOf(f.Call(nil, []xdm.Sequence{arg}))
}

// valuesDoc is <r><v>lex</v>…</r>, or "" when a value is no XML text.
func valuesDoc(lexes []string) string {
	var b strings.Builder
	b.WriteString("<r>")
	for _, lex := range lexes {
		for _, r := range lex {
			if r < 0x20 && r != '\t' && r != '\n' || r == '\r' || r == 0xFFFD || r >= 0xFFFE && r <= 0xFFFF {
				return ""
			}
		}
		b.WriteString("<v>" + strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(lex) + "</v>")
	}
	b.WriteString("</r>")
	return b.String()
}

// checkFold requires every way of feeding fn's fold the values to give the
// same result bytes or error code: the chain walk over /r/v in a document
// of untyped values; the pull loop, over the same nodes under the eager
// engine (which walks no chain) and over typed values bound to $x; and the
// registry's Call over the drained argument. typed=nil checks the
// untyped values alone.
func checkFold(t testing.TB, fn string, lexes []string, typed xdm.Sequence) {
	t.Helper()
	if doc := valuesDoc(lexes); doc != "" {
		d, err := xmlparse.ParseString(doc, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var nodes xdm.Sequence
		for _, v := range d.RootNode().ChildrenOf()[0].ChildrenOf() {
			nodes = append(nodes, v)
		}
		chain := evalFold(t, fn, "/r/v", nil, doc, Options{})
		pull := evalFold(t, fn, "/r/v", nil, doc, Options{Eager: true})
		call := callFold(fn, nodes)
		if chain != pull || chain != call {
			t.Errorf("%s over untyped %q: chain %+v, pull %+v, call %+v", fn, lexes, chain, pull, call)
		}
	}
	if typed != nil {
		pull := evalFold(t, fn, "$x", typed, "", Options{})
		if call := callFold(fn, typed); pull != call {
			t.Errorf("%s over %s: pull %+v, call %+v", fn, typed, pull, call)
		}
	}
}

func atoms(t testing.TB, pairs ...any) xdm.Sequence {
	t.Helper()
	seq := xdm.Sequence{}
	for i := 0; i < len(pairs); i += 2 {
		a, err := xdm.Cast(xdm.NewString(pairs[i+1].(string)), pairs[i].(xdm.TypeCode))
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, a)
	}
	return seq
}

// TestFoldChainPullCallAgree feeds every folded built-in by chain walk, pull
// loop and registry Call over numeric, non-numeric, mixed, empty, NaN and
// duration inputs.
func TestFoldChainPullCallAgree(t *testing.T) {
	untyped := [][]string{
		{"1", "2.5", "-3"},
		{"a", "b", "a"},
		{"1", "a"},
		{},
		{"NaN", "1"},
		{"2", "NaN", "x"},
		{"PT1H", "PT2H"},
		{" 7 ", "7", "7.0", "INF"},
	}
	for _, fn := range foldFuncs {
		for _, lexes := range untyped {
			checkFold(t, fn, lexes, nil)
		}
		for _, typed := range []xdm.Sequence{
			atoms(t, xdm.TInteger, "1", xdm.TDecimal, "2.5", xdm.TDouble, "1e0"),
			atoms(t, xdm.TString, "b", xdm.TString, "a", xdm.TAnyURI, "a"),
			atoms(t, xdm.TInteger, "1", xdm.TString, "a"),
			atoms(t),
			atoms(t, xdm.TDouble, "NaN", xdm.TInteger, "1"),
			atoms(t, xdm.TDayTimeDuration, "PT1H", xdm.TDayTimeDuration, "PT3H"),
			atoms(t, xdm.TYearMonthDuration, "P1Y", xdm.TYearMonthDuration, "P3M"),
			atoms(t, xdm.TYearMonthDuration, "P1Y", xdm.TInteger, "1"),
			atoms(t, xdm.TInteger, "9007199254740993", xdm.TInteger, "9007199254740992"),
			atoms(t, xdm.TDate, "2004-01-02", xdm.TDate, "2003-01-02"),
		} {
			checkFold(t, fn, nil, typed)
		}
	}
}

// foldTypes are the types FuzzFold casts its values to; a value that does
// not cast stays untyped.
var foldTypes = []xdm.TypeCode{
	xdm.TUntyped, xdm.TString, xdm.TInteger, xdm.TDecimal, xdm.TDouble,
	xdm.TDayTimeDuration, xdm.TYearMonthDuration, xdm.TDate,
}

// FuzzFold requires each folded built-in to give one result over three
// fuzzed lexical values: as untyped node text, walked as a chain, pulled and
// called; and cast to fuzzed types, pulled and called.
func FuzzFold(f *testing.F) {
	f.Add("1", "2.5", "x", uint16(0), uint8(0))
	f.Add("1", "NaN", "3", uint16(4<<3|2), uint8(3))
	f.Add("PT1H", "PT2H", "1", uint16(2<<6|5<<3|5), uint8(1))
	f.Add("P1Y", "P2M", "", uint16(6<<3|6), uint8(0))
	f.Add("9007199254740993", "9007199254740992", "9007199254740992e0", uint16(4<<6|2<<3|2), uint8(4))
	f.Add("a", "b", "1", uint16(1<<3|1), uint8(2))
	f.Fuzz(func(t *testing.T, a, b, c string, types uint16, which uint8) {
		fn := foldFuncs[int(which)%len(foldFuncs)]
		lexes := []string{a, b, c}
		typed := xdm.Sequence{}
		for i, lex := range lexes {
			v, err := xdm.Cast(xdm.NewString(lex), foldTypes[int(types>>(3*i))&7])
			if err != nil {
				v = xdm.NewUntyped(lex)
			}
			typed = append(typed, v)
		}
		checkFold(t, fn, lexes, typed)
	})
}
