package optimizer_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"xqgo/internal/expr"
	. "xqgo/internal/optimizer"
	"xqgo/internal/xqparse"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizer")

const goldenPath = "testdata/plans.golden"

// paperCorpus is the paper suite of the root package (paperqueries_test.go),
// verbatim: the root module's tests cannot be imported from here.
var paperCorpus = []string{
	`for $x in document("bib.xml")/bib/book return $x/title`,
	`let $x := document("bib.xml")/bib/book return count($x)`,
	`for $x in //bib/book let $y := $x/author where $x/title = "Ulysses" return count($y)`,
	`for $x in //bib/book return (let $y := $x/author return if ($x/title = "Ulysses") then count($y) else ())`,
	`for $b in document("bib.xml")//book where $b/publisher = "Springer Verlag" and $b/@year = "1998" return $b/title`,
	`count(//book[author/firstname = "ronald"])`,
	`count(//book[@price < 25])`,
	`count(//book[count(author[@gender="female"]) > 0])`,
	`count(/bib/book/author[1])`,
	`count((/bib/book/author)[1])`,
	`<a>42</a> eq "42"`,
	`<a>42</a> = 42`,
	`<a>42</a> = 42.0`,
	`<a>42</a> eq <b>42</b>`,
	`() = 42`,
	`(<a>42</a>, <b>43</b>) = 42`,
	`(1,2) = (2,3)`,
	`count(() eq 42)`,
	`let $x := <a/> return count(distinct-nodes(($x, $x)))`,
	`count(distinct-nodes((<a/>, <a/>)))`,
	`declare namespace ns = "uri1"; <b xmlns:ns="uri2">{ namespace-uri-from-QName(node-name(<ns:a/>)) }</b>`,
	`count(/bib/book/title/..)`,
	`count(/bib/book[title])`,
	`for $book in /bib/book return if ($book/@year < 1980) then <old>{$book/title/text()}</old> else <new>{$book/title/text()}</new>`,
	`let $ttl := <x ttl="33000"/> return <binding>{ if (empty($ttl/@ttl)) then () else attribute persist-duration { concat(($ttl/@ttl div 1000), " seconds") } }</binding>`,
	`empty(())`,
	`index-of((10, 20, 30), 20)`,
	`distinct-values((1, 1, 2))`,
	`string-length("politics")`,
	`contains("experience", "peri")`,
	`true()`,
	`string(date("2002-05-20"))`,
	`string(add-date(date("2002-05-20"), xdt:dayTimeDuration("P2D")))`,
	`let $d := <r><a/><b/><c/></r> let $x := $d/a let $y := $d/b let $z := $d/c return for $n in (($x, $y) union ($y, $z)) return local-name($n)`,
	`for $line in /Order/OrderLine where $line/SellersID eq "1" return <lineItem>{string($line/Item/ID)}</lineItem>`,
}

// genTemplate writes the k-th query of adhoc-compile's shape (bench/adhoc.go,
// which the root module cannot import): 4 to 24 local: functions that call
// the ones before them, a let-chain with repeated calls, and a FLWOR nested
// 1 to 4 deep. The two sizes follow k as they do there; rng decides the rest.
func genTemplate(rng *rand.Rand, k int) string {
	var sb strings.Builder
	nf := 4 + k%21
	var costs []int
	for i := 0; i < nf; i++ {
		body, cost := genTemplateFunc(rng, costs)
		costs = append(costs, cost)
		fmt.Fprintf(&sb, "declare function local:f%d($x as xs:integer) as xs:integer {\n  %s\n};\n", i, body)
	}
	pick := func() int { return rng.Intn(nf) }
	y := 1980 + rng.Intn(25)
	fmt.Fprintf(&sb, "let $n := count(/bib/book[@year >= %d])\n", y)
	fmt.Fprintf(&sb, "let $m := count(/bib/book[@year = \"%d\"])\n", y)
	a, b := pick(), pick()
	fmt.Fprintf(&sb, "let $p := local:f%d($n) + local:f%d($n)\n", a, a)
	fmt.Fprintf(&sb, "let $q := (local:f%d($m + %d) + $p) mod 9973\n", b, 2+rng.Intn(7))
	sb.WriteString("let $r := $q + 1\nreturn (\n")
	depth := 1 + k/21%4
	var idx []string
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "%sfor $i%d in 1 to %d return\n", strings.Repeat("  ", i+1), i, 2+rng.Intn(2))
		idx = append(idx, fmt.Sprintf("$i%d", i))
	}
	sum := strings.Join(idx, " + ")
	c, d := pick(), pick()
	fmt.Fprintf(&sb, "%sif ((%s) mod %d = 0) then local:f%d(%s + $r) else local:f%d(%s) + $n,\n",
		strings.Repeat("  ", depth+1), sum, 2+rng.Intn(3), c, sum, d, sum)
	sb.WriteString("  9999999999)\n")
	return sb.String()
}

// genTemplateFunc writes one function body over $x and returns it with its
// cost (calls per invocation), which caps how deep call chains grow.
func genTemplateFunc(rng *rand.Rand, costs []int) (string, int) {
	k, c := 2+rng.Intn(8), 1+rng.Intn(50)
	form := rng.Intn(5)
	j := 0
	if len(costs) == 0 {
		form = 0
	} else if j = rng.Intn(len(costs)); costs[j] > 8 {
		form = 0
	}
	switch form {
	case 1:
		return fmt.Sprintf("(local:f%d($x) + %d) mod 9973", j, c), 1 + costs[j]
	case 2:
		return fmt.Sprintf("(local:f%d($x + %d) * %d + local:f%d($x + %d)) mod 9973", j, c, k, j, c), 1 + 2*costs[j]
	case 3:
		return fmt.Sprintf("if ($x mod 2 = 0) then local:f%d($x) else ($x + %d) mod 9973", j, c), 1 + costs[j]
	case 4:
		return fmt.Sprintf("let $a := $x + %d let $b := $a * %d return ($b + local:f%d($a)) mod 9973", c, k, j), 1 + costs[j]
	}
	return fmt.Sprintf("($x * %d + %d) mod 9973", k, c), 1
}

// templateCorpus is 64 templates spread over a 1 024-template pool at seed 1.
func templateCorpus() []string {
	rng := rand.New(rand.NewSource(1))
	var out []string
	for k := 0; k < 1024; k++ {
		q := genTemplate(rng, k)
		if k%16 == 0 {
			out = append(out, q)
		}
	}
	return out
}

// goldenCorpus is every query the plan golden pins.
func goldenCorpus() []string {
	out := append([]string(nil), equivalenceCorpus...)
	out = append(out, contractCorpus...)
	out = append(out, cseTwoCalls, cseFocus)
	out = append(out, paperCorpus...)
	return append(out, templateCorpus()...)
}

// dumpPlan optimizes src with a trace and writes what the golden pins: the
// plan of the body and of every function, the fire counts and the events.
func dumpPlan(w *strings.Builder, src string, opts Options) {
	fmt.Fprintf(w, "query %q\n", src)
	q, err := xqparse.Parse(src)
	if err != nil {
		fmt.Fprintf(w, "error %v\n", err)
		return
	}
	if opts.Trace == nil {
		opts.Trace = NewTrace()
	}
	q = Optimize(q, opts)
	for _, fd := range q.Funcs {
		fmt.Fprintf(w, "func %s %s\n", fd.Name, expr.String(fd.Body))
	}
	for _, v := range q.Vars {
		if v.Init != nil {
			fmt.Fprintf(w, "var %s %s\n", v.Name, expr.String(v.Init))
		}
	}
	fmt.Fprintf(w, "body %s\n", expr.String(q.Body))
	fires := opts.Trace.Fires()
	var rules []string
	for r := range fires {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(w, "fires %s %d\n", r, fires[r])
	}
	for _, ev := range opts.Trace.Events() {
		fmt.Fprintf(w, "event %s: %s => %s\n", ev.Rule, ev.Before, ev.After)
	}
	if n := opts.Trace.Dropped(); n > 0 {
		fmt.Fprintf(w, "dropped %d\n", n)
	}
}

// TestPlansGolden pins the optimized plans and trace events of the golden
// corpus. Regenerate with: go test ./internal/optimizer -run TestPlansGolden -update
func TestPlansGolden(t *testing.T) {
	var sb strings.Builder
	for _, src := range goldenCorpus() {
		dumpPlan(&sb, src, Options{})
		sb.WriteString("\n")
	}
	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("plans differ from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("plans differ from %s in length: %d lines, want %d", goldenPath, len(g), len(w))
}
