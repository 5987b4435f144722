package xqgo_test

// Differential test for the two pull granularities of one plan: every query
// of the paper suite (plus error-path and laziness edge cases) is consumed by
// batched drains (EvalString, Execute) and by item-granular Iterator/Next
// pulls, asserting identical results and identical error codes — mixing
// granularities never skips or repeats an item. Results themselves are
// pinned against the eager reference engine by differential_test.go.

import (
	"bytes"
	"testing"

	"xqgo"
	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
)

// batchDiffQueries is the differential suite: the paperqueries_test.go
// queries verbatim, plus cases aimed at the batched operators (deep paths,
// filters, FLWOR pipelines, ranges, set ops, grouping, order-by) and at
// error propagation through batch boundaries.
var batchDiffQueries = []string{
	// paperqueries_test.go suite.
	`for $x in document("bib.xml")/bib/book return $x/title`,
	`let $x := document("bib.xml")/bib/book return count($x)`,
	`for $x in //bib/book
	 let $y := $x/author
	 where $x/title = "Ulysses"
	 return count($y)`,
	`for $x in //bib/book
	 return (let $y := $x/author
	         return if ($x/title = "Ulysses") then count($y) else ())`,
	`for $b in document("bib.xml")//book
	 where $b/publisher = "Springer Verlag" and $b/@year = "1998"
	 return $b/title`,
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
	`declare namespace ns = "uri1";
	 <b xmlns:ns="uri2">{ namespace-uri-from-QName(node-name(<ns:a/>)) }</b>`,
	`count(/bib/book/title/..)`,
	`count(/bib/book[title])`,
	`for $book in /bib/book
	 return if ($book/@year < 1980)
	        then <old>{$book/title/text()}</old>
	        else <new>{$book/title/text()}</new>`,
	`let $ttl := <x ttl="33000"/>
	 return <binding>{
	   if (empty($ttl/@ttl)) then ()
	   else attribute persist-duration { concat(($ttl/@ttl div 1000), " seconds") }
	 }</binding>`,
	`empty(())`,
	`index-of((10, 20, 30), 20)`,
	`distinct-values((1, 1, 2))`,
	`string-length("politics")`,
	`contains("experience", "peri")`,
	`string(date("2002-05-20"))`,
	`string(add-date(date("2002-05-20"), xdt:dayTimeDuration("P2D")))`,
	`let $x := <x/> let $y := <y/> let $z := <z/>
	 return for $n in (($x, $y) union ($y, $z)) return local-name($n)`,

	// Batched-operator edges: ranges, deep pipelines, grouping, order-by.
	`count(1 to 1000)`,
	`sum(1 to 300)`,
	`(1 to 400)[. mod 7 = 0]`,
	`count(for $i in 1 to 200 for $j in 1 to 3 where ($i + $j) mod 5 = 0 return $i * $j)`,
	`for $b in /bib/book order by string($b/title) return string($b/@year)`,
	`for $b in /bib/book order by number($b/price) descending return string($b/price)`,
	`for $a in //author group by $g := count($a/*) return $g`,
	`string-join(for $i in 1 to 150 return string($i mod 10), "")`,
	`count(//*)`,
	`count(//author/ancestor::book)`,
	`(for $x in 1 to 100 return $x * $x)[71]`,
	`some $x in 1 to 1000000000 satisfies $x = 3`,
	`every $x in 1 to 50 satisfies $x > 0`,
	`subsequence(1 to 100000, 5, 3)`,
	`let $s := (1 to 260) return (count($s), sum($s), $s[259])`,

	// Error propagation across batch boundaries: items before the error
	// must not change which error code surfaces.
	`(1, 2, 1 idiv 0)`,
	`(1, 1 idiv 0, 3)[1]`,
	`for $x in (1, 2, 0, 4) return 10 idiv $x`,
	`sum(for $x in 1 to 300 return if ($x = 299) then "boom" else $x)`,
	`count(for $x in 1 to 300 return 1 idiv (300 - $x))`,
	`/bib/book[1 idiv 0]`,
	`string(xs:yearMonthDuration("P1D"))`,
	`codepoints-to-string((65, 66, 0))`,
	`let $dead := 1 idiv 0 return "alive"`,
	`try { for $x in 1 to 300 return 1 idiv (150 - $x) } catch * { "caught" }`,

	// Comma sequences with heavy, context-free branches — the shape morsel
	// workers evaluate one branch per chunk: branches sharing a let binding,
	// a failing branch in the middle, and one-item consumers that must not
	// reach the failing branch.
	`let $b := document("bib.xml")//book return
	   (count($b[@price < 25]/author/firstname) + count($b/title) + count($b/@year),
	    string-join(for $t in $b/title return concat(string($t), "!"), "|"),
	    sum(for $a in $b/author return string-length(string($a/lastname))) + count($b/publisher))`,
	`let $b := document("bib.xml")//book return
	   (count($b[@price < 25]/author/firstname) + count($b/title) + count($b/@year),
	    sum(for $a in $b/author return 1 idiv (count($a/firstname) - count($a/firstname))),
	    string-join(for $t in $b/title return concat(string($t), "!"), "|"))`,
	`let $b := document("bib.xml")//book return
	   exists((count($b/author/firstname) + count($b/title) + count($b/@year) + count($b/publisher),
	           sum(for $a in $b/author return 1 idiv (count($a/firstname) - count($a/firstname)))))`,
	`let $b := document("bib.xml")//book return
	   (count($b/author/firstname) + count($b/title) + count($b/@year) + count($b/publisher),
	    sum(for $a in $b/author return 1 idiv (count($a/firstname) - count($a/firstname))))[1]`,

	// Namespaces, over ns.xml: the inputs on which the stored-subtree scan
	// and the id-free constructor once serialized differently. A namespaced
	// attribute under an undeclared element prefix; a prolog prefix nothing
	// declares in the output; the same on a computed attribute; an inherited
	// default namespace; newline and tab in an attribute value; xml:lang; a
	// constructor's unused declaration around a copied tree; a top-level
	// attribute (err:SENR0001 either way); an attribute after content
	// (err:XQTY0024); a duplicate attribute (err:XQDY0025).
	`document("ns.xml")/*/*[1]`,
	`declare namespace p="urn:p"; <p:w>{1,2}</p:w>`,
	`declare namespace p="urn:p"; <r>{attribute p:x {1}}</r>`,
	`document("ns.xml")/*/*[2]`,
	`document("ns.xml")/*/*[2]/*`,
	`string(document("ns.xml")/*/*[3]/@x)`,
	`document("ns.xml")/*/*[3]`,
	`<w xmlns:z="urn:z">{document("ns.xml")/*}</w>`,
	`document("ns.xml")/*/*[3]/@x`,
	`<a xmlns="urn:k"><b>{document("ns.xml")/*/*[3]}</b></a>`,
	`<a>text{attribute x {1}}</a>`,
	`<a x="1">{attribute x {2}}</a>`,
}

// batchDiffOptSets exercises the fast path under each join strategy that
// feeds it: Auto (the default), navigation, and the twig join, which
// produces batches of its own.
var batchDiffOptSets = []struct {
	name string
	opts xqgo.Options
}{
	{"default", xqgo.Options{}},
	{"navigation", xqgo.Options{Strategy: xqgo.ForceNavigation}},
	{"twig", xqgo.Options{Strategy: xqgo.ForceTwig}},
}

func errCode(err error) string {
	if err == nil {
		return ""
	}
	if e, ok := err.(*xdm.Error); ok {
		return e.Code
	}
	return "non-xdm:" + err.Error()
}

func TestPullGranularityDifferential(t *testing.T) {
	for _, os := range batchDiffOptSets {
		t.Run(os.name, func(t *testing.T) {
			for _, q := range batchDiffQueries {
				compiled, err := xqgo.Compile(q, &os.opts)
				if err != nil {
					t.Fatalf("compile %q: %v", q, err)
				}

				// Materializing evaluation: batched drains end to end.
				ctx, _ := paperCtx(t)
				want, wantErr := compiled.EvalString(ctx)

				// Serializer sink (Execute drains batches directly): the
				// materialised store and the id-free constructor are two token
				// sources into one writer, so the bytes agree.
				ctx, _ = paperCtx(t)
				var buf bytes.Buffer
				err = compiled.Execute(ctx, &buf)
				if errCode(err) != errCode(wantErr) {
					t.Errorf("%q: execute error %v, eval error %v", q, err, wantErr)
				} else if err == nil && buf.String() != want {
					t.Errorf("%q: execute output mismatch:\n  execute: %q\n  eval:    %q", q, buf.String(), want)
				}
				if wantErr == nil {
					ctx, _ = paperCtx(t)
					result, err := compiled.Eval(ctx)
					if err != nil {
						t.Fatal(err)
					}
					checkReparses(t, result, want)
				}

				// Item-granularity pulls against the batch-capable plan.
				ctx, _ = paperCtx(t)
				var items xqgo.Sequence
				it, err := compiled.Iterator(ctx)
				for err == nil {
					var item xqgo.Item
					var ok bool
					if item, ok, err = it.Next(); !ok {
						break
					}
					items = append(items, item)
				}
				got := ""
				if err == nil {
					got, err = serializer.SequenceToString(items)
				}
				if errCode(err) != errCode(wantErr) {
					t.Errorf("%q: item-pull error %v, eval error %v", q, err, wantErr)
				} else if err == nil && got != want {
					t.Errorf("%q: item-pull result mismatch:\n  items: %q\n  eval:  %q", q, got, want)
				}
			}
		})
	}
}

// reparseEqual compares a result with its own serialization parsed back:
// element content takes a sequence by the same rules serialization does
// (nodes copied, adjacent atomics joined by a space), and fn:deep-equal
// compares expanded names, attribute values and text.
var reparseEqual = func() *xqgo.Query {
	q, err := xqgo.Compile(`declare variable $result external; declare variable $reparsed external;
		deep-equal(<wrap>{$result}</wrap>, $reparsed/*)`, nil)
	if err != nil {
		panic(err)
	}
	return q
}()

func checkReparses(t *testing.T, result xqgo.Sequence, out string) {
	t.Helper()
	reparsed, err := xqgo.ParseString("<wrap>"+out+"</wrap>", "out.xml")
	if err != nil {
		t.Errorf("output is not well-formed: %v\n  %s", err, out)
		return
	}
	same, err := reparseEqual.EvalString(xqgo.NewContext().Bind("result", result).Bind("reparsed", reparsed))
	if err != nil || same != "true" {
		t.Errorf("output does not re-parse to the result (deep-equal = %q, %v):\n  %s", same, err, out)
	}
}
