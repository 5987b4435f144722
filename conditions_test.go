package xqgo_test

// Hand-written expected values for comparisons, and/or, effective boolean
// values, positional predicates and axis steps. The eager reference engine
// compiles through the same comparison, condition and step code as the
// lazy one, so a differential test cannot catch a mistake they share; these
// expectations were worked out from the specification, not from the
// engine's output.

import (
	"testing"

	"xqgo"
	"xqgo/internal/runtime"
	"xqgo/internal/xdm"
)

// condDoc has untyped numbers (one of them NaN), repeated and namespaced
// names, attributes, a comment and two processing instructions.
const condDoc = `<r xmlns:p="urn:p">` +
	`<a id="1" p:x="px"><b>1</b><c>x</c></a>` +
	`<!--note--><?x data?><?y other?>` +
	`<a id="2"><b>2</b><p:b>pb</p:b>t</a>` +
	`<p:a>pa</p:a>` +
	`<book year="1994"><price>95</price></book>` +
	`<book year="2000"><price>NaN</price></book>` +
	`<book year="1994"><price>12</price></book>` +
	`</r>`

const declP = `declare namespace p = "urn:p"; `

func TestConditionAndStepExpectations(t *testing.T) {
	cases := []struct {
		name, query string
		want        string // serialized result when code is empty
		code        string // the required err: code
	}{
		// General comparisons: untyped against a numeric literal compares as
		// xs:double (NaN matches nothing), against a string as a string, on
		// either side of the operator.
		{"general/untyped-gt-number", `/r/book[price > 90]/@year/string()`, "1994", ""},
		{"general/number-lt-untyped", `/r/book[90 < price]/@year/string()`, "1994", ""},
		{"general/attr-eq-integer", `count(/r/book[@year = 1994])`, "2", ""},
		{"general/integer-eq-attr", `count(/r/book[1994 = @year])`, "2", ""},
		{"general/untyped-eq-string", `/r/book[price = "NaN"]/@year/string()`, "2000", ""},
		{"general/nan-ne", `count(/r/book[price != 95])`, "2", ""},
		{"general/nan-eq-nan", `number("NaN") = number("NaN")`, "false", ""},
		{"general/empty", `() = 1`, "false", ""},
		{"general/empty-step", `count(/r/book[nothing = 1])`, "0", ""},
		{"general/multi-existential", `/r/a/b = "2"`, "true", ""},
		{"general/untyped-not-a-number", `/r/a/c = 1`, "", "FORG0001"},

		// Value comparisons: untyped compares as xs:string, an empty operand
		// gives the empty sequence, more than one item is a type error.
		{"value/untyped-eq-string", `/r/book[price eq "95"]/@year/string()`, "1994", ""},
		{"value/string-eq-untyped", `/r/book["12" eq price]/@year/string()`, "1994", ""},
		{"value/untyped-vs-integer", `/r/book[price gt 90]`, "", "XPTY0004"},
		{"value/empty", `() eq 1`, "", ""},
		{"value/empty-exists", `exists(/r/missing eq "x")`, "false", ""},
		{"value/empty-predicate", `count(/r/book[nothing eq 1])`, "0", ""},
		{"value/multi-left", `/r/a/b eq "1"`, "", "XPTY0004"},
		{"value/multi-right", `"1" eq /r/a/b`, "", "XPTY0004"},
		{"value/nan-ne", `number(/r/book[2]/price) ne 1`, "true", ""},

		// and/or short-circuit on the left operand; an error on the left
		// is raised.
		{"logic/false-and-error", `false() and error()`, "false", ""},
		{"logic/true-or-error", `true() or error()`, "true", ""},
		{"logic/error-and", `error() and false()`, "", "FOER0000"},
		{"logic/error-or", `(1 idiv 0) or true()`, "", "FOAR0001"},
		{"logic/and-predicate", `/r/book[price > 90 and @year = "1994"]/@year/string()`, "1994", ""},
		{"logic/or-predicate", `count(/r/book[price > 90 or @year = "2000"])`, "2", ""},
		{"logic/not", `count(/r/book[not(price > 90)])`, "2", ""},
		{"logic/boolean-of-step", `count(/r/*[boolean(b)])`, "2", ""},

		// Effective boolean value (XQuery 1.0 §2.4.3, F&O §15.1.1): more
		// than one atomic item, or a single value of another type, is
		// err:FORG0006 at every site.
		{"ebv/predicate-multi-numeric", `(1 to 5)[(1, 2)]`, "", "FORG0006"},
		{"ebv/predicate-multi-numeric-2", `(1 to 5)[(4, 2)]`, "", "FORG0006"},
		{"ebv/predicate-numeric-string", `(1 to 5)[(2, "a")]`, "", "FORG0006"},
		{"ebv/boolean", `boolean((1, 2))`, "", "FORG0006"},
		{"ebv/if", `if ((1, 2)) then 1 else 2`, "", "FORG0006"},
		{"ebv/not", `not((1, 2))`, "", "FORG0006"},
		{"ebv/date", `boolean(xs:date("2001-01-01"))`, "", "FORG0006"},
		{"ebv/where", `for $x in (1, 2) where ($x, $x) return $x`, "", "FORG0006"},
		{"ebv/satisfies", `some $x in (1, 2) satisfies ($x, 3)`, "", "FORG0006"},
		{"ebv/node-first", `boolean((/r/a, 1, 2))`, "true", ""},
		{"ebv/predicate-number", `(1 to 5)[4]`, "4", ""},
		{"ebv/predicate-string", `(1 to 3)["x"]`, "1 2 3", ""},

		// fn:last() in predicates and in a path's right side.
		{"last/eq-3", `/r/book[last() = 3]/@year/string()`, "1994 2000 1994", ""},
		{"last/position-eq-last", `/r/book[position() = last()]/price/string()`, "12", ""},
		{"last/predicate-under-path", `/r/a/b[last()]/string()`, "1 2", ""},
		{"last/path-right-side", `/r/book/(if (position() = last()) then price/string() else ())`, "12", ""},
		{"last/count", `count(/r/a[last()])`, "1", ""},

		// Positional bounds: position() compared with a number keeps a
		// window of the input (XPath 2.0 §3.2.2), whichever side position()
		// is on; a bound that is no number is a type error, raised only
		// when some item is tested.
		{"bound/le-fraction", `/r/book[position() le 2.5]/@year/string()`, "1994 2000", ""},
		{"bound/le-string", `/r/book[position() le "3"]`, "", "XPTY0004"},
		{"bound/mirrored", `/r/book[3 ge position()]/price/string()`, "95 NaN 12", ""},
		{"bound/twice", `/r/book[position() le 3][position() gt 1]/price/string()`, "NaN 12", ""},
		{"bound/empty-input-string", `()[position() le "3"]`, "", ""},
		{"bound/range", `/r/book[position() = (2 to 3)]/price/string()`, "NaN 12", ""},
		{"bound/and", `/r/book[position() ge 2 and position() le 2]/price/string()`, "NaN", ""},
		{"bound/eq-fraction", `count(/r/book[position() = 1.5])`, "0", ""},
		{"bound/nan", `count(/r/book[position() le number("NaN")])`, "0", ""},
		{"bound/inf", `count(/r/book[position() lt 1 div 0e0])`, "3", ""},
		{"bound/per-parent", `/r/a/*[position() lt 2]/string()`, "1 2", ""},

		// fn:subsequence (F&O §15.1.10): the items at round(start) ≤ p <
		// round(start) + round(length); both arguments are xs:double by
		// function conversion.
		{"subsequence/nan-start", `subsequence((1 to 5), number("NaN"))`, "", ""},
		{"subsequence/inf-start", `subsequence((1 to 5), 1 div 0e0)`, "", ""},
		{"subsequence/huge-start", `subsequence((1 to 5), 1e300)`, "", ""},
		{"subsequence/max-integer-start", `subsequence((1 to 5), 9223372036854775807)`, "", ""},
		{"subsequence/inf-length", `subsequence((1 to 5), 1, 1 div 0e0)`, "1 2 3 4 5", ""},
		{"subsequence/huge-length", `subsequence((1 to 5), 1, 1e300)`, "1 2 3 4 5", ""},
		{"subsequence/max-integer-length", `subsequence((1 to 5), 2, 9223372036854775807)`, "2 3 4 5", ""},
		{"subsequence/rounding", `subsequence((1 to 5), -0.7, 2.5)`, "1", ""},
		{"subsequence/string-start", `subsequence((1 to 5), "2")`, "", "XPTY0004"},
		{"subsequence/untyped-start", `subsequence((1 to 5), xs:untypedAtomic("2"))`, "2 3 4 5", ""},

		// Axis steps over stored nodes.
		{"step/child-node", `count(/r/node())`, "9", ""},
		{"step/child-comment", `/r/comment()/string()`, "note", ""},
		{"step/child-pi-name", `/r/processing-instruction(x)/string()`, "data", ""},
		{"step/child-pi", `count(/r/processing-instruction())`, "2", ""},
		{"step/child-text", `/r/a/text()/string()`, "t", ""},
		{"step/child-any-space", `count(/r/*:a)`, "3", ""},
		{"step/child-any-local", declP + `/r/p:*/string()`, "pa", ""},
		{"step/attr-any", `count(/r/a/@*)`, "3", ""},
		{"step/attr-prefixed", declP + `/r/a/@p:x/string()`, "px", ""},
		{"step/attr-name", `string-join(/r/a/@id, ",")`, "1,2", ""},
		{"step/attr-kind-self", `count(/r/a/@*/self::attribute(id))`, "2", ""},
		{"step/desc-name", `count(//b)`, "2", ""},
		{"step/desc-any-space", `count(/r/descendant::*:b)`, "3", ""},
		{"step/desc-or-self-node", `count(/r/descendant-or-self::node())`, "26", ""},
		{"step/desc-text", `count(/r/descendant::text())`, "9", ""},
		{"step/desc-text-value", `/r/book[1]/descendant::text()/string()`, "95", ""},
		{"step/attr-desc-or-self", `count(/r/a/@id/descendant-or-self::node())`, "2", ""},
		{"step/attr-desc", `count(/r/a/@id/descendant::node())`, "0", ""},
		{"step/self", `/r/a[1]/self::a/@id/string()`, "1", ""},
		{"step/self-mismatch", `count(/r/a/self::b)`, "0", ""},

		// The same steps over constructed nodes.
		{"constructed/steps", declP + `let $d := <r><a x="1"><b>1</b><!--c--><?x d?>t</a><a x="2"/><p:a>q</p:a></r>
			return (count($d/a/node()), count($d//b), count($d/a/@*),
			        $d/a/processing-instruction(x)/string(), count($d/descendant-or-self::node()),
			        count($d/a/comment()), $d/a/text()/string(), count($d/*:a), $d/a[@x = 2]/@x/string(),
			        $d/p:*/string(), count($d/a/self::a), count($d/descendant::text()))`,
			"4 1 2 d 10 1 t 3 2 q 2 3", ""},

		// A step applied to an atomic value.
		{"atomic/path", `(1)/a`, "", "XPTY0004"},
		{"atomic/predicate-step", `(1, 2)[a]`, "", "XPTY0004"},
		{"atomic/self", `"x"/self::node()`, "", "XPTY0004"},
	}
	doc := xqgo.MustParseString(condDoc, "cond.xml")
	legs := []struct {
		name    string
		compile func(string) (*xqgo.Query, error)
	}{
		{"optimized", func(src string) (*xqgo.Query, error) { return xqgo.Compile(src, nil) }},
		{"unoptimized", func(src string) (*xqgo.Query, error) {
			return xqgo.Compile(src, &xqgo.Options{NoOptimize: true})
		}},
		{"eager", func(src string) (*xqgo.Query, error) {
			return xqgo.CompileReference(src, runtime.Options{Eager: true})
		}},
	}
	for _, c := range cases {
		for _, leg := range legs {
			q, err := leg.compile(c.query)
			if err != nil {
				t.Errorf("%s/%s: compile: %v", c.name, leg.name, err)
				continue
			}
			got, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
			switch {
			case c.code != "":
				if !xdm.IsCode(err, c.code) {
					t.Errorf("%s/%s: got %q, %v; want err:%s", c.name, leg.name, got, err, c.code)
				}
			case err != nil:
				t.Errorf("%s/%s: %v", c.name, leg.name, err)
			case got != c.want:
				t.Errorf("%s/%s: got %q, want %q", c.name, leg.name, got, c.want)
			}
		}
	}
}
