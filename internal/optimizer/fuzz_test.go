package optimizer_test

import (
	"strings"
	"testing"

	"xqgo/internal/expr"
	. "xqgo/internal/optimizer"
	"xqgo/internal/xqparse"
)

// FuzzOptimize checks, for any text xqparse accepts, that Optimize does not
// panic, that two fresh parse+optimize runs give the same plans and trace
// events (what the nondeterministic CSE broke), and that disabling every
// rule leaves the plan as parsed.
func FuzzOptimize(f *testing.F) {
	// FuzzQueryParse's seeds (internal/xqparse/fuzz_test.go), positional
	// bounds and fn:subsequence's edge cases, then the plan golden's
	// corpus (its bound shapes among them).
	for _, s := range []string{
		``, `1+1`, `/bib/book/title`, `//a[@k = "v"]`, `count(/Order/OrderLine)`,
		`for $b in /bib/book where $b/price > 30 return $b/title`,
		`let $x := (1, 2, 3) return sum($x)`,
		`sum(for $l in /Order/OrderLine return count($l/Item))`,
		`if (empty(/a)) then "none" else string(/a)`,
		`document("file.xml")/r/v`, `<wrap>{/bib/book/title}</wrap>`,
		`some $x in (1, 2) satisfies $x > 1`,
		`/a[`, `for $ in x`, `"unterminated`, `1 ++ 2`, `((((((((`,
		`(/Order/OrderLine)[position() le 10]/Item/ID`, `/Order/OrderLine[10 ge position()][position() gt 2]`,
		`(1 to 9)[position() = (2 to 4)]`, `(1 to 9)[position() ge 2 and position() lt 4.5]`,
		`(1 to 9)[position() le xs:double("NaN")]`, `(1 to 9)[position() lt xs:double("INF")]`,
		`(1 to 9)[position() le "3"]`, `(1 to 9, error())[position() eq 1]`, `(1 to 9)[position() ne last() - 1]`,
		`subsequence((1 to 5), xs:double("NaN"))`, `subsequence((1 to 5), 1, xs:double("INF"))`,
		`subsequence((1 to 5), 1e300)`, `subsequence((1 to 5), 2, 9223372036854775807)`,
		`subsequence((1 to 5), -0.7, 2.5)`, `subsequence((1 to 5), "2")`, `subsequence((1 to 5), xs:untypedAtomic("2"))`,
	} {
		f.Add(s)
	}
	for _, s := range goldenCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip("oversized input")
		}
		q, err := xqparse.Parse(src)
		if err != nil {
			return
		}
		var first, second strings.Builder
		dumpPlan(&first, src, Options{})
		dumpPlan(&second, src, Options{})
		if first.String() != second.String() {
			t.Fatalf("two runs disagree:\n%s\n%s", first.String(), second.String())
		}
		parsed := planText(q)
		off, _ := xqparse.Parse(src)
		if got := planText(Optimize(off, Disable(AllRules...))); got != parsed {
			t.Fatalf("all rules off changed the plan:\n got  %s\n want %s", got, parsed)
		}
	})
}

// planText renders every expression of a query.
func planText(q *expr.Query) string {
	var sb strings.Builder
	for _, fd := range q.Funcs {
		sb.WriteString(expr.String(fd.Body) + "\n")
	}
	for _, v := range q.Vars {
		sb.WriteString(expr.String(v.Init) + "\n")
	}
	sb.WriteString(expr.String(q.Body))
	return sb.String()
}
