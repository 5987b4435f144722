package xqgo_test

// Table-driven F&O edge-case conformance tests for the fixes of PR 3:
// fn:substring NaN/rounding semantics, fn:codepoints-to-string FOCH0001
// validation, fn:abs negative zero, and the xs:yearMonthDuration /
// xs:dayTimeDuration constructor functions — plus the NaN, negative-zero
// and surrogate neighbors around each fix.

import (
	"testing"

	"xqgo"
	"xqgo/internal/xdm"
)

func TestFandOConformance(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  string // expected serialized result when wantErr is empty
		// wantErr, when set, is the required err: code.
		wantErr string
	}{
		// fn:substring: round/NaN rules. round(NaN) is NaN and every
		// position comparison against NaN is false, so the result is "".
		{"substring/nan-start", `substring("hello", 0 div 0e0)`, "", ""},
		{"substring/nan-length", `substring("hello", 2, 0 div 0e0)`, "", ""},
		{"substring/basic", `substring("motor car", 6)`, " car", ""},
		{"substring/basic-length", `substring("metadata", 4, 7)`, "adata", ""},
		{"substring/rounding", `substring("12345", 1.5, 2.6)`, "234", ""},
		{"substring/zero-start", `substring("12345", 0, 3)`, "12", ""},
		{"substring/negative-length", `substring("12345", 5, -3)`, "", ""},
		{"substring/negative-start", `substring("12345", -3, 5)`, "1", ""},
		{"substring/inf-length", `substring("12345", -42, 1 div 0e0)`, "12345", ""},
		{"substring/inf-both", `substring("12345", -1 div 0e0, 1 div 0e0)`, "", ""},

		// fn:round (F&O §6.4.4): the nearest integer, the one toward
		// positive infinity of two; infinities and huge doubles are their
		// own rounding, and the double just below 0.5 rounds to 0.
		{"round/huge", `round(1e300) eq 1e300`, "true", ""},
		{"round/inf", `round(xs:double("INF")) eq xs:double("INF")`, "true", ""},
		{"round/below-half", `round(0.49999999999999994e0) eq 0`, "true", ""},
		{"round/half-negative", `round(-2.5)`, "-2", ""},

		// fn:floor, fn:ceiling and fn:round-half-to-even (F&O §6.4.2,
		// §6.4.3, §6.4.5) on doubles outside the int64 range: NaN and the
		// infinities are their own, signed zeros keep their sign (made
		// observable by division), and every double of magnitude 2^52 or
		// more is already integral. A decimal has no negative zero, and an
		// integer is its own floor, ceiling and rounding, however large.
		{"floor/nan", `floor(0 div 0e0)`, "NaN", ""},
		{"floor/inf", `floor(xs:double("INF")) eq xs:double("INF")`, "true", ""},
		{"floor/negative-inf", `floor(xs:double("-INF")) eq xs:double("-INF")`, "true", ""},
		{"floor/zero", `1 div floor(0e0)`, "INF", ""},
		{"floor/negative-zero", `1 div floor(-0e0)`, "-INF", ""},
		{"floor/huge", `floor(1e300) eq 1e300`, "true", ""},
		{"floor/negative-huge", `floor(-1e300) eq -1e300`, "true", ""},
		{"floor/two-to-63", `floor(9223372036854775808e0) eq 9223372036854775808e0`, "true", ""},
		{"floor/negative-fraction", `floor(-0.5e0)`, "-1", ""},
		{"ceiling/nan", `ceiling(0 div 0e0)`, "NaN", ""},
		{"ceiling/inf", `ceiling(xs:double("INF")) eq xs:double("INF")`, "true", ""},
		{"ceiling/inf-lexical", `ceiling(xs:double("INF"))`, "INF", ""},
		{"ceiling/negative-inf", `ceiling(xs:double("-INF")) eq xs:double("-INF")`, "true", ""},
		{"ceiling/zero", `1 div ceiling(0e0)`, "INF", ""},
		{"ceiling/negative-zero", `1 div ceiling(-0e0)`, "-INF", ""},
		{"ceiling/negative-fraction", `1 div ceiling(-0.5e0)`, "-INF", ""},
		{"ceiling/huge", `ceiling(1e300) eq 1e300`, "true", ""},
		{"ceiling/negative-huge", `ceiling(-1e300) eq -1e300`, "true", ""},
		{"ceiling/two-to-63", `ceiling(9223372036854775808e0) eq 9223372036854775808e0`, "true", ""},
		{"round-half-to-even/nan", `round-half-to-even(0 div 0e0)`, "NaN", ""},
		{"round-half-to-even/inf", `round-half-to-even(xs:double("INF")) eq xs:double("INF")`, "true", ""},
		{"round-half-to-even/negative-inf", `round-half-to-even(xs:double("-INF")) eq xs:double("-INF")`, "true", ""},
		{"round-half-to-even/zero", `1 div round-half-to-even(0e0)`, "INF", ""},
		{"round-half-to-even/negative-zero", `1 div round-half-to-even(-0e0)`, "-INF", ""},
		{"round-half-to-even/huge", `round-half-to-even(1e300) eq 1e300`, "true", ""},
		{"round-half-to-even/negative-huge", `round-half-to-even(-1e300) eq -1e300`, "true", ""},
		{"round-half-to-even/two-to-63",
			`round-half-to-even(9223372036854775808e0) eq 9223372036854775808e0`, "true", ""},
		{"ceiling/decimal-negative-fraction", `ceiling(-0.3)`, "0", ""},
		{"floor/max-integer", `floor(9223372036854775807)`, "9223372036854775807", ""},
		{"ceiling/min-integer", `ceiling(-9223372036854775807)`, "-9223372036854775807", ""},
		{"round/integer-beyond-2-to-53", `round(9007199254740993)`, "9007199254740993", ""},
		{"round-half-to-even/integer-beyond-2-to-53", `round-half-to-even(9007199254740993)`, "9007199254740993", ""},
		{"abs/integer-beyond-2-to-53", `abs(-9007199254740993)`, "9007199254740993", ""},
		{"round-half-to-even/decimal-negative-half", `round-half-to-even(-0.5)`, "0", ""},
		{"round-half-to-even/halves", `round-half-to-even(2.5e0), round-half-to-even(3.5e0), round-half-to-even(-2.5e0)`,
			"2 4 -2", ""},
		// The second argument of fn:round-half-to-even (F&O §6.4.5, with
		// its examples): a decimal is rounded on its digits, a double on its
		// exact binary value, and a negative precision rounds to tens,
		// hundreds and so on.
		{"round-half-to-even/precision-double", `round-half-to-even(3.567812e0, 2)`, "3.57", ""},
		{"round-half-to-even/precision-decimal", `round-half-to-even(2.675, 2)`, "2.68", ""},
		{"round-half-to-even/precision-double-below-half", `round-half-to-even(2.675e0, 2)`, "2.67", ""},
		{"round-half-to-even/fo-examples",
			`round-half-to-even(0.5), round-half-to-even(1.5), round-half-to-even(2.5),
			 round-half-to-even(3.567812e+3, 2), round-half-to-even(4.7564e-3, 2)`, "0 2 2 3567.81 0", ""},
		{"round-half-to-even/negative-precision", `round-half-to-even(35612.25, -2)`, "35600", ""},
		{"round-half-to-even/integer-negative-precision",
			`round-half-to-even(35650, -2), round-half-to-even(35750, -2), round-half-to-even(-35650, -2)`,
			"35600 35800 -35600", ""},
		{"round-half-to-even/precision-type", `round-half-to-even(2.5, 1) instance of xs:decimal`, "true", ""},
		// A precision whose digits to drop leave the int64 range rounds on
		// the value, not on wrapped scaled digits.
		{"round-half-to-even/min-precision",
			`round-half-to-even(2.5, -9223372036854775807 - 1), round-half-to-even(12345, -9223372036854775807 - 1)`,
			"0 0", ""},
		{"round-half-to-even/integer-widest-multiple", `round-half-to-even(9223372036854775807, -18)`,
			"9000000000000000000", ""},
		{"round-half-to-even/integer-multiple-overflow", `round-half-to-even(9223372036854775807, -19)`, "", "FOAR0002"},

		// The canonical form of a double outside the plain-integer range:
		// a mantissa with a fraction digit, an exponent without sign or
		// leading zero (F&O §17.1.2).
		{"double-lexical/exponent", `floor(1e300), 1e-7, 1.5e20, -1.5e20`, "1.0E300 1.0E-7 1.5E20 -1.5E20", ""},
		{"double-lexical/plain-integer", `1e14, 25e0`, "100000000000000 25", ""},
		// An xs:float prints the shortest digits of its float32 value, not
		// those of the double it widens to, with the double's forms.
		{"float-lexical/shortest", `xs:float("0.1"), xs:float(1) div 3, xs:float("1e-7")`,
			"0.1 0.33333334 1.0E-7", ""},
		{"float-lexical/forms", `xs:float("1e10"), xs:float("-2.5"), xs:float("3.4e38"), xs:float("1.5e20")`,
			"10000000000 -2.5 3.4E38 1.5E20", ""},
		{"float-lexical/round-trip", `xs:float(string(xs:float("0.1"))) eq xs:float("0.1")`, "true", ""},

		// fn:sum, fn:avg, fn:min and fn:max (F&O §15.4): an untyped value is
		// a double and must be a number (FORG0001); a value the aggregate
		// does not take, or a mix of numbers and durations or of the two
		// duration types, is FORG0006; NaN decides min and max.
		{"sum/empty", `sum(())`, "0", ""},
		{"sum/empty-with-empty-zero", `count(sum((), ()))`, "0", ""},
		{"avg/empty", `count(avg(()))`, "0", ""},
		{"sum/untyped", `sum((<a>1</a>, <a>2.5</a>))`, "3.5", ""},
		{"sum/string-and-number", `sum(("a", 1))`, "", "FORG0006"},
		{"sum/string-alone", `sum("a")`, "", "FORG0006"},
		{"avg/number-and-string", `avg((1, "a"))`, "", "FORG0006"},
		{"max/string-and-number", `max(("a", 1))`, "", "FORG0006"},
		{"sum/year-month-durations",
			`sum((xs:yearMonthDuration("P1Y"), xs:yearMonthDuration("P3M")))`, "P1Y3M", ""},
		{"avg/day-time-durations",
			`avg((xs:dayTimeDuration("PT1H"), xs:dayTimeDuration("PT3H")))`, "PT2H", ""},
		{"sum/duration-and-number", `sum((xs:dayTimeDuration("PT1H"), 1))`, "", "FORG0006"},
		{"sum/two-duration-types",
			`sum((xs:yearMonthDuration("P1Y"), xs:dayTimeDuration("PT1H")))`, "", "FORG0006"},
		{"max/nan", `max((1, 0 div 0e0, 3))`, "NaN", ""},
		{"min/nan-first", `min((0 div 0e0, 1))`, "NaN", ""},
		{"min/strings", `min(("b", "a", "c"))`, "a", ""},
		{"sum/untyped-not-a-number", `sum((1, xs:untypedAtomic("x")))`, "", "FORG0001"},
		{"max/untyped-not-a-number", `max(<a>x</a>)`, "", "FORG0001"},
		// fn:min and fn:max (F&O §15.4.3, §15.4.4) return the winner in the
		// common type of all the values: numbers promote, an anyURI meets a
		// string as a string.
		{"max/promotes-to-double", `max((3, 2.5e0)) instance of xs:double, max((3, 2.5e0))`, "true 3", ""},
		{"max/promotes-to-float", `max((xs:float(1), 2)) instance of xs:float`, "true", ""},
		{"max/float-over-integer", `max((1, xs:float(0.5))) instance of xs:float`, "true", ""},
		{"min/promotes-to-decimal", `min((1, 2.5)) instance of xs:decimal, min((1, 2.5)) instance of xs:integer`, "true false", ""},
		{"min/one-type-stays", `min((1, 2)) instance of xs:integer`, "true", ""},
		{"max/anyuri-and-string", `max((xs:anyURI("b"), "a")) instance of xs:string`, "true", ""},
		{"max/float-nan-then-double", `max((xs:float("NaN"), 1e0)) instance of xs:double`, "true", ""},
		{"min/untyped-is-double", `min((<a>1</a>, 2)) instance of xs:double`, "true", ""},

		// fn:distinct-values: integers stay apart beyond 2^53; numbers of
		// every type meet by value, strings and untyped atomics by text.
		{"distinct-values/beyond-2-to-53",
			`count(distinct-values((9007199254740993, 9007199254740992)))`, "2", ""},
		{"distinct-values/cross-type", `distinct-values((1, 1.0, 1e0, "1", xs:untypedAtomic("1")))`, "1 1", ""},

		// fn:codepoints-to-string: invalid XML characters raise FOCH0001.
		{"codepoints/basic", `codepoints-to-string((65, 98, 99))`, "Abc", ""},
		{"codepoints/zero", `codepoints-to-string(0)`, "", "FOCH0001"},
		{"codepoints/control", `codepoints-to-string(8)`, "", "FOCH0001"},
		{"codepoints/high-surrogate", `codepoints-to-string(55296)`, "", "FOCH0001"},
		{"codepoints/low-surrogate-end", `codepoints-to-string(57343)`, "", "FOCH0001"},
		{"codepoints/fffe", `codepoints-to-string(65534)`, "", "FOCH0001"},
		{"codepoints/above-max", `codepoints-to-string(1114112)`, "", "FOCH0001"},
		{"codepoints/tab-valid", `string-length(codepoints-to-string(9))`, "1", ""},
		{"codepoints/surrogate-neighbor-valid",
			`string-length(codepoints-to-string(55295))`, "1", ""}, // 0xD7FF
		{"codepoints/max-valid", `string-length(codepoints-to-string(1114111))`, "1", ""},

		// fn:abs: negative zero maps to positive zero; sign-sensitive
		// division makes the sign observable.
		{"abs/negative-zero", `1e0 div abs(-0.0e0)`, "INF", ""},
		{"abs/integer", `abs(-3)`, "3", ""},
		{"abs/decimal", `abs(-3.2)`, "3.2", ""},
		{"abs/nan", `abs(0 div 0e0)`, "NaN", ""},
		{"abs/negative-inf", `abs(-1 div 0e0)`, "INF", ""},

		// Duration constructor functions (cast-as-T? semantics).
		{"duration/ym-constructor",
			`xs:yearMonthDuration("P1Y2M") eq xs:yearMonthDuration("P14M")`, "true", ""},
		{"duration/dt-constructor",
			`xs:dayTimeDuration("P1DT2H") + xs:dayTimeDuration("PT22H") eq xs:dayTimeDuration("P2D")`,
			"true", ""},
		{"duration/ym-order",
			`xs:yearMonthDuration("P1Y") lt xs:yearMonthDuration("P13M")`, "true", ""},
		{"duration/ym-empty", `count(xs:yearMonthDuration(()))`, "0", ""},
		{"duration/ym-invalid-lexical", `xs:yearMonthDuration("P1D")`, "", "FORG0001"},
		{"duration/dt-invalid-lexical", `xs:dayTimeDuration("P1Y")`, "", "FORG0001"},

		// A direct constructor's xmlns="..." is the default element
		// namespace of its own name, of nested constructors and of name
		// tests in enclosed expressions, ahead of the prolog's.
		{"default-ns/own-name", `namespace-uri(<a xmlns="urn:k"/>)`, "urn:k", ""},
		{"default-ns/nested-and-name-test",
			`<a xmlns="urn:k">{namespace-uri(<b/>), count(<c><d/></c>/d)}</a>`,
			`<a xmlns="urn:k">urn:k 1</a>`, ""},
		{"default-ns/innermost-wins",
			`declare default element namespace "urn:p";
			 (namespace-uri(<a xmlns="urn:k"><b xmlns=""/></a>/*), namespace-uri(<a/>))`,
			" urn:p", ""},
		{"default-ns/attribute-unaffected", `namespace-uri(<a xmlns="urn:k" x="1"/>/@x)`, "", ""},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, err := xqgo.Compile(tc.query, nil)
			if err != nil {
				t.Fatalf("compile %q: %v", tc.query, err)
			}
			got, err := compiled.EvalString(xqgo.NewContext())
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("%q: expected err:%s, got %q", tc.query, tc.wantErr, got)
				}
				if !xdm.IsCode(err, tc.wantErr) {
					t.Fatalf("%q: expected err:%s, got %v", tc.query, tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("eval %q: %v", tc.query, err)
			}
			if got != tc.want {
				t.Errorf("%q = %q, want %q", tc.query, got, tc.want)
			}
		})
	}
}
