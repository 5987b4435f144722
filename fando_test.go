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
