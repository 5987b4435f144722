package xqgo_test

// Queries lifted from the paper's own slides, run end to end: the FLWOR
// examples, the comparison-semantics table, the LET-folding hazards, the
// parallel-safety examples, and the use-case fragments.

import (
	"strings"
	"testing"

	"xqgo"
)

const paperBib = `<bib>
 <book year="1998">
   <title>The politics of experience</title>
   <author><firstname>ronald</firstname><lastname>Laing</lastname></author>
   <publisher>Springer Verlag</publisher>
   <price>20</price>
 </book>
 <book year="1967">
   <title>Ulysses</title>
   <author><firstname>James</firstname><lastname>Joyce</lastname></author>
   <author gender="female"><firstname>Assistant</firstname><lastname>Editor</lastname></author>
   <publisher>Shakespeare</publisher>
   <price>30</price>
 </book>
</bib>`

// paperNS is the namespaced companion of paperBib: prefixed and default
// declarations, a namespaced attribute, xml:lang, and an attribute value
// with a newline and a tab.
const paperNS = `<p:a xmlns:p="urn:p"><p:b q:x="1" xmlns:q="urn:q">t</p:b>` +
	`<d xmlns="urn:d"><e><f/></e></d><g x="l1&#10;l2&#9;t" xml:lang="en"/></p:a>`

func paperCtx(t *testing.T) (*xqgo.Context, *xqgo.Document) {
	t.Helper()
	doc, err := xqgo.ParseString(paperBib, "bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := xqgo.ParseString(paperNS, "ns.xml")
	if err != nil {
		t.Fatal(err)
	}
	return xqgo.NewContext().WithContextNode(doc).
		RegisterDocument("bib.xml", doc).RegisterDocument("ns.xml", ns), doc
}

func evalP(t *testing.T, q string) string {
	t.Helper()
	ctx, _ := paperCtx(t)
	compiled, err := xqgo.Compile(q, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	out, err := compiled.EvalString(ctx)
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return out
}

// The "Simple iteration expression" slide.
func TestPaperSimpleIteration(t *testing.T) {
	got := evalP(t, `for $x in document("bib.xml")/bib/book return $x/title`)
	if !strings.Contains(got, "<title>The politics of experience</title>") ||
		!strings.Contains(got, "<title>Ulysses</title>") {
		t.Errorf("iteration output: %q", got)
	}
}

// The "Local variable declaration" slide.
func TestPaperLetCount(t *testing.T) {
	if got := evalP(t, `let $x := document("bib.xml")/bib/book return count($x)`); got != "2" {
		t.Errorf("let count = %q", got)
	}
}

// The "FLWR expression semantics" slide: for/let/where is equivalent to
// for + nested let + if.
func TestPaperFlwrEquivalence(t *testing.T) {
	a := evalP(t, `
	  for $x in //bib/book
	  let $y := $x/author
	  where $x/title = "Ulysses"
	  return count($y)`)
	b := evalP(t, `
	  for $x in //bib/book
	  return (let $y := $x/author
	          return if ($x/title = "Ulysses") then count($y) else ())`)
	if a != b || a != "2" {
		t.Errorf("FLWR desugaring: %q vs %q (want 2)", a, b)
	}
}

// The "More FLWR expression examples" slide: selection.
func TestPaperSelection(t *testing.T) {
	got := evalP(t, `
	  for $b in document("bib.xml")//book
	  where $b/publisher = "Springer Verlag" and $b/@year = "1998"
	  return $b/title`)
	if got != "<title>The politics of experience</title>" {
		t.Errorf("selection = %q", got)
	}
}

// The "Xpath filter predicates" slide.
func TestPaperFilterPredicates(t *testing.T) {
	if got := evalP(t, `count(//book[author/firstname = "ronald"])`); got != "1" {
		t.Errorf("author/firstname predicate = %q", got)
	}
	if got := evalP(t, `count(//book[@price < 25])`); got != "0" {
		t.Errorf("@price predicate = %q (no price attributes)", got)
	}
	if got := evalP(t, `count(//book[count(author[@gender="female"]) > 0])`); got != "1" {
		t.Errorf("nested count predicate = %q", got)
	}
	// The "classical Xpath mistake": $x/a/b[1] is per-a, (/a/b)[1] global.
	perA := evalP(t, `count(/bib/book/author[1])`)
	global := evalP(t, `count((/bib/book/author)[1])`)
	if perA != "2" || global != "1" {
		t.Errorf("classical mistake: per-a %s (want 2), global %s (want 1)", perA, global)
	}
}

// The "Value and general comparisons" slide, element forms.
func TestPaperComparisonTable(t *testing.T) {
	cases := map[string]string{
		`<a>42</a> eq "42"`:           "true",
		`<a>42</a> = 42`:              "true",
		`<a>42</a> = 42.0`:            "true",
		`<a>42</a> eq <b>42</b>`:      "true",
		`() = 42`:                     "false",
		`(<a>42</a>, <b>43</b>) = 42`: "true",
		`(1,2) = (2,3)`:               "true",
	}
	for q, want := range cases {
		if got := evalP(t, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
	// () eq 42 evaluates to the empty sequence.
	if got := evalP(t, `count(() eq 42)`); got != "0" {
		t.Errorf("() eq 42 should be empty, count = %q", got)
	}
}

// The "LET clause folding" slide: ($x, $x) over a constructor must keep
// two references to ONE node.
func TestPaperLetFoldingHazard(t *testing.T) {
	got := evalP(t, `let $x := <a/> return count(distinct-nodes(($x, $x)))`)
	if got != "1" {
		t.Errorf("let $x := <a/> return ($x,$x): distinct nodes = %q, want 1", got)
	}
	// Without the binding, two constructors create two nodes.
	got = evalP(t, `count(distinct-nodes((<a/>, <a/>)))`)
	if got != "2" {
		t.Errorf("(<a/>, <a/>): distinct nodes = %q, want 2", got)
	}
}

// The "Nested scopes" slide: a constructor-local namespace wins for names
// inside it.
func TestPaperNestedNamespaceScopes(t *testing.T) {
	got := evalP(t, `
	  declare namespace ns = "uri1";
	  <b xmlns:ns="uri2">{ namespace-uri-from-QName(node-name(<ns:a/>)) }</b>`)
	if !strings.Contains(got, "uri2") {
		t.Errorf("constructor scope should rebind ns: %q", got)
	}
}

// The "Dealing with backwards navigation" slide: $x/a/.. round trip.
func TestPaperBackwardNavigation(t *testing.T) {
	a := evalP(t, `count(/bib/book/title/..)`)
	if a != "2" {
		t.Errorf("/bib/book/title/.. = %q, want 2 (the books)", a)
	}
	// And the rewritten form agrees.
	b := evalP(t, `count(/bib/book[title])`)
	if a != b {
		t.Errorf("backward-free form disagrees: %s vs %s", a, b)
	}
}

// The conditional slide: "Only one branch allowed to raise execution
// errors".
func TestPaperConditionalErrors(t *testing.T) {
	got := evalP(t, `
	  for $book in /bib/book
	  return if ($book/@year < 1980)
	         then <old>{$book/title/text()}</old>
	         else <new>{$book/title/text()}</new>`)
	if !strings.Contains(got, "<old>Ulysses</old>") ||
		!strings.Contains(got, "<new>The politics of experience</new>") {
		t.Errorf("conditional constructor output: %q", got)
	}
}

// The customer-query fragment style: conditional attribute construction
// with div (the ebXML ttl/1000 pattern).
func TestPaperConditionalAttribute(t *testing.T) {
	got := evalP(t, `
	  let $ttl := <x ttl="33000"/>
	  return <binding>{
	    if (empty($ttl/@ttl)) then ()
	    else attribute persist-duration { concat(($ttl/@ttl div 1000), " seconds") }
	  }</binding>`)
	if got != `<binding persist-duration="33 seconds"/>` {
		t.Errorf("conditional attribute = %q", got)
	}
}

// The "A built-in function sampler" slide.
func TestPaperFunctionSampler(t *testing.T) {
	cases := map[string]string{
		`empty(())`:                      "true",
		`index-of((10, 20, 30), 20)`:     "2",
		`distinct-values((1, 1, 2))`:     "1 2",
		`string-length("politics")`:      "8",
		`contains("experience", "peri")`: "true",
		`true()`:                         "true",
		`string(date("2002-05-20"))`:     "2002-05-20",
		`string(add-date(date("2002-05-20"), xdt:dayTimeDuration("P2D")))`: "2002-05-22",
	}
	for q, want := range cases {
		if got := evalP(t, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// The "Combining sequences" slide.
func TestPaperCombiningSequences(t *testing.T) {
	got := evalP(t, `
	  let $d := <r><a/><b/><c/></r>
	  let $x := $d/a let $y := $d/b let $z := $d/c
	  return for $n in (($x, $y) union ($y, $z)) return local-name($n)`)
	if got != "a b c" {
		t.Errorf("union result = %q, want 'a b c'", got)
	}
}
