package runtime

import (
	"strings"
	"testing"

	"xqgo/internal/optimizer"
	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

// evalQuery compiles and evaluates a query against the sample bib document
// bound as the context item, returning the serialized result.
func evalQuery(t *testing.T, src string, opts Options) (string, error) {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(q, opts)
	if err != nil {
		return "", err
	}
	seq, err := p.Eval(testDynamic(t))
	if err != nil {
		return "", err
	}
	return serializer.SequenceToString(seq)
}

const testBib = `<bib><book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last><first>W.</first></author><price>65.95</price></book><book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last><first>Serge</first></author><author><last>Buneman</last><first>Peter</first></author><price>39.95</price></book><book year="1999"><title>Economics</title><price>129.95</price></book></bib>`

func testDynamic(t *testing.T) *Dynamic {
	t.Helper()
	doc, err := xmlparse.ParseString(testBib, xmlparse.Options{URI: "bib.xml"})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewDocRegistry(false)
	reg.Register("bib.xml", doc.RootNode())
	return &Dynamic{
		ContextItem: doc.RootNode(),
		Resolver:    reg,
		Vars: map[string]xdm.Sequence{
			"three": {xdm.NewInteger(3)},
			"word":  {xdm.NewString("hello")},
		},
	}
}

// semanticsCases is the core language table; every case runs on both the
// streaming and the eager engine and must agree.
var semanticsCases = []struct {
	name string
	q    string
	want string
}{
	// sequences
	{"comma-flatten", `(1, 2, (3, 4))`, `1 2 3 4`},
	{"singleton-is-item", `(1)`, `1`},
	{"empty-parens", `()`, ``},
	{"range", `1 to 4`, `1 2 3 4`},
	{"range-empty", `3 to 1`, ``},
	{"range-single", `2 to 2`, `2`},
	{"range-empty-operand", `() to 3`, ``},

	// arithmetic (the paper's rules)
	{"add", `1 + 4`, `5`},
	{"div-decimal", `5 div 2`, `2.5`},
	{"idiv", `7 idiv 2`, `3`},
	{"mod", `7 mod 3`, `1`},
	{"precedence", `1 - 4 * 8.5`, `-33`},
	{"neg", `-(2 + 3)`, `-5`},
	{"empty-arith", `() + 1`, ``},
	{"untyped-arith", `<a>42</a> + 1`, `43`},
	{"decimal-exact", `0.1 + 0.2`, `0.3`},

	// comparisons
	{"value-eq", `1 eq 1`, `true`},
	{"value-lt-string", `"abc" lt "abd"`, `true`},
	{"general-existential", `(1, 3) = (3, 5)`, `true`},
	{"general-existential-false", `(1, 2) = (3, 5)`, `false`},
	{"general-lt-nontransitive", `(1, 3) = (1, 2)`, `true`},
	{"empty-value-comp", `() eq 42`, ``},
	{"empty-general-comp", `() = 42`, `false`},
	{"untyped-vs-number", `<a>42</a> = 42`, `true`},
	{"untyped-vs-string-eq", `<a>42</a> eq "42"`, `true`},
	{"two-elem-eq", `<a>42</a> eq <b>42</b>`, `true`},
	{"two-elem-eq-ws", `<a>42</a> eq <b> 42</b>`, `false`},
	{"node-is-self", `let $x := <a/> return $x is $x`, `true`},
	{"node-is-not", `<a/> is <a/>`, `false`},
	{"node-order", `let $d := <r><a/><b/></r> return ($d/a << $d/b, $d/b << $d/a)`, `true false`},

	// logic (2-valued, short-circuit)
	{"and", `1 eq 1 and 2 eq 2`, `true`},
	{"or", `1 eq 2 or 2 eq 2`, `true`},
	{"ebv-empty", `() or false()`, `false`},
	{"ebv-string", `"x" and true()`, `true`},
	{"ebv-zero", `0 or false()`, `false`},
	{"false-and-error", `1 eq 2 and (1 idiv 0 eq 1)`, `false`},
	{"true-or-error", `1 eq 1 or (1 idiv 0 eq 1)`, `true`},
	{"not", `fn:not(1 eq 2)`, `true`},

	// conditionals: only the taken branch may raise errors
	{"if-then", `if (1 eq 1) then "yes" else "no"`, `yes`},
	{"if-else", `if (1 eq 2) then "yes" else "no"`, `no`},
	{"if-error-untaken", `if (1 eq 1) then "safe" else 1 idiv 0`, `safe`},

	// paths over the bib document
	{"abs-path", `count(/bib/book)`, `3`},
	{"path-text", `string(/bib/book[1]/title)`, `TCP/IP Illustrated`},
	{"attr-step", `/bib/book[1]/@year/data(.)`, `1994`},
	{"descendant", `count(//author)`, `3`},
	{"descendant-named", `count(//last)`, `3`},
	{"wildcard", `count(/bib/book[2]/*)`, `4`},
	{"parent", `string((//last)[1]/../../title)`, `TCP/IP Illustrated`},
	{"pred-value", `count(/bib/book[price > 50])`, `2`},
	{"pred-position", `string(/bib/book[2]/title)`, `Data on the Web`},
	{"pred-last", `string(/bib/book[last()]/title)`, `Economics`},
	{"pred-position-fn", `string(/bib/book[position() ge 2][1]/title)`, `Data on the Web`},
	{"chained-preds", `count(/bib/book[price > 30][2])`, `1`},
	{"ancestor", `count((//first)[1]/ancestor::*)`, `3`},
	{"ancestor-or-self", `count((//first)[1]/ancestor-or-self::*)`, `4`},
	{"self-test", `count(/bib/book/self::book)`, `3`},
	{"following-sibling", `count(/bib/book[1]/following-sibling::book)`, `2`},
	{"preceding-sibling", `count(/bib/book[3]/preceding-sibling::book)`, `2`},
	{"path-doc-order", `for $n in (/bib/book[2], /bib/book[1])/title return string($n)`,
		`TCP/IP Illustrated Data on the Web`},
	{"path-dedup", `count((/bib/book, /bib/book)/title)`, `3`},
	{"kind-test-text", `count(/bib/book[1]/title/text())`, `1`},
	{"root-fn", `count(/)`, `1`},
	{"atomic-rhs-path", `/bib/book[1]/string(title)`, `TCP/IP Illustrated`},

	// FLWOR
	{"for-return", `for $i in (1 to 3) return $i * $i`, `1 4 9`},
	{"for-two-vars", `for $i in (1, 2), $j in (10, 20) return $i + $j`, `11 21 12 22`},
	{"let", `let $x := (1, 2, 3) return count($x)`, `3`},
	{"let-shadow", `let $x := 1 return (let $x := 2 return $x)`, `2`},
	{"where", `for $b in /bib/book where $b/@year = 2000 return string($b/title)`, `Data on the Web`},
	{"positional-var", `for $b at $i in /bib/book return concat($i, ":", $b/@year)`,
		`1:1994 2:2000 3:1999`},
	{"order-by", `for $b in /bib/book order by xs:decimal($b/price) return string($b/price)`,
		`39.95 65.95 129.95`},
	{"order-by-desc", `for $b in /bib/book order by xs:decimal($b/price) descending return string($b/price)`,
		`129.95 65.95 39.95`},
	{"order-by-string", `for $w in ("pear", "apple", "fig") order by $w return $w`,
		`apple fig pear`},
	{"order-by-two-keys", `for $b in /bib/book order by count($b/author), xs:decimal($b/price) return string($b/@year)`,
		`1999 1994 2000`},
	{"order-stable", `for $b at $i in /bib/book order by 1 return $i`, `1 2 3`},
	{"order-empty-least", `for $p in (1, 2, 3) order by (if ($p eq 2) then () else $p) empty least return $p`, `2 1 3`},
	{"order-empty-greatest", `for $p in (1, 2, 3) order by (if ($p eq 2) then () else $p) return $p`, `1 3 2`},
	{"nested-flwor", `for $x in (1,2) return for $y in (3,4) return $x*$y`, `3 4 6 8`},

	// quantifiers
	{"some-true", `some $x in (1, 2, 3) satisfies $x eq 2`, `true`},
	{"some-false", `some $x in (1, 2, 3) satisfies $x eq 9`, `false`},
	{"every-true", `every $x in (1, 2, 3) satisfies $x lt 10`, `true`},
	{"every-false", `every $x in (1, 2, 3) satisfies $x lt 3`, `false`},
	{"some-empty", `some $x in () satisfies $x eq 1`, `false`},
	{"every-empty", `every $x in () satisfies $x eq 1`, `true`},
	{"two-var-quantifier", `some $x in (1,2), $y in (2,3) satisfies $x eq $y`, `true`},

	// typeswitch / instance of / cast / treat
	{"instance-int", `3 instance of xs:integer`, `true`},
	{"instance-derived", `3 instance of xs:decimal`, `true`},
	{"instance-star", `(1, 2) instance of xs:integer*`, `true`},
	{"instance-card", `(1, 2) instance of xs:integer`, `false`},
	{"instance-node", `<a/> instance of element()`, `true`},
	{"instance-named", `<a/> instance of element(a)`, `true`},
	{"instance-named-no", `<a/> instance of element(b)`, `false`},
	{"instance-empty", `() instance of empty-sequence()`, `true`},
	{"typeswitch-case", `typeswitch (3) case xs:string return "s" case xs:integer return "i" default return "d"`, `i`},
	{"typeswitch-default", `typeswitch (<a/>) case xs:string return "s" default return "d"`, `d`},
	{"typeswitch-var", `typeswitch ((1,2)) case $v as xs:integer+ return count($v) default return 0`, `2`},
	{"cast", `"42" cast as xs:integer`, `42`},
	{"cast-optional-empty", `() cast as xs:integer?`, ``},
	{"castable", `"42" castable as xs:integer`, `true`},
	{"castable-no", `"x" castable as xs:integer`, `false`},
	{"treat-ok", `(3 treat as xs:integer) + 1`, `4`},
	{"constructor-fn", `xs:integer("17") + 1`, `18`},
	{"constructor-fn-decimal", `xs:decimal(/bib/book[2]/price) lt 50`, `true`},

	// set operations
	{"union-dedup-order", `let $d := <r><a/><b/></r> return count(($d/b, $d/a) union ($d/a))`, `2`},
	{"intersect", `let $d := <r><a/><b/></r> let $all := $d/* return count($all intersect $d/a)`, `1`},
	{"except", `let $d := <r><a/><b/></r> let $all := $d/* return count($all except $d/a)`, `1`},

	// constructors
	{"direct-elem", `<a x="1">t</a>`, `<a x="1">t</a>`},
	{"enclosed-content", `<a>{1 + 1}</a>`, `<a>2</a>`},
	{"adjacent-atomics-space", `<a>{1, 2, 3}</a>`, `<a>1 2 3</a>`},
	{"literal-no-space", `<a>x{1}{2}</a>`, `<a>x12</a>`},
	{"attr-template", `<a b="v{1+1}w"/>`, `<a b="v2w"/>`},
	{"computed-elem", `element foo { attribute bar {"b"}, "body" }`, `<foo bar="b">body</foo>`},
	{"computed-name", `element {concat("a","b")} {}`, `<ab/>`},
	{"text-ctor", `<a>{text {"T"}}</a>`, `<a>T</a>`},
	{"comment-ctor", `<a>{comment {"c"}}</a>`, `<a><!--c--></a>`},
	{"pi-ctor", `<a>{processing-instruction tgt {"d"}}</a>`, `<a><?tgt d?></a>`},
	{"copy-node", `<w>{/bib/book[1]/title}</w>`, `<w><title>TCP/IP Illustrated</title></w>`},
	{"copy-attribute", `<w>{/bib/book[1]/@year}</w>`, `<w year="1994"/>`},
	{"constructed-identity", `count(distinct-nodes((<a/>, <a/>)))`, `2`},
	{"construction-side-effect", `let $x := <a/> return count(distinct-nodes(($x, $x)))`, `1`},
	{"doc-ctor", `count(document { <a/> }/a)`, `1`},
	{"nested-constructors", `<o>{for $b in /bib/book return <t>{string($b/title)}</t>}</o>`,
		`<o><t>TCP/IP Illustrated</t><t>Data on the Web</t><t>Economics</t></o>`},

	// functions
	{"user-function", `declare function local:sq($x as xs:integer) as xs:integer { $x * $x }; local:sq(7)`, `49`},
	{"recursion", `declare function local:fact($n as xs:integer) as xs:integer { if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(6)`, `720`},
	{"mutual-recursion", `
	  declare function local:even($n) { if ($n eq 0) then true() else local:odd($n - 1) };
	  declare function local:odd($n) { if ($n eq 0) then false() else local:even($n - 1) };
	  local:even(10)`, `true`},
	{"function-no-context", `declare function local:f() { 42 }; /bib/local:f()`, `42`},

	// external variables & prolog vars
	{"external-var", `declare variable $three external; $three + 1`, `4`},
	{"external-string", `declare variable $word external; concat($word, "!")`, `hello!`},
	{"global-var", `declare variable $g := 2 * 21; $g`, `42`},
	{"global-var-chain", `declare variable $a := 2; declare variable $b := $a * 3; $b`, `6`},

	// fn:doc
	{"doc-fn", `count(doc("bib.xml")//book)`, `3`},
	{"document-fn", `count(document("bib.xml")//book)`, `3`},

	// namespaces end to end
	{"ns-wildcard-local", `declare namespace n = "urn:n";
	  count(<r><n:a/><n:b/><c/></r>/n:*)`, `2`},
	{"ns-wildcard-space", `declare namespace n = "urn:n";
	  count(<r><n:a/><a/></r>/*:a)`, `2`},
	{"ns-exact", `declare namespace n = "urn:n";
	  count(<r><n:a/><a/></r>/n:a)`, `1`},
	{"ns-attr", `declare namespace n = "urn:n";
	  string(<e n:x="v"/>/@n:x)`, `v`},

	// kind tests and extra axes
	{"comment-nav", `string(<r><!--hello--></r>/comment())`, `hello`},
	{"pi-nav", `string(<r>{processing-instruction t {"data"}}</r>/processing-instruction())`, `data`},
	{"pi-nav-named", `count(<r>{processing-instruction t {"d"}}</r>/processing-instruction(other))`, `0`},
	{"attr-kind-test", `count(<e a="1" b="2"/>/@*)`, `2`},
	{"element-kind-test", `count(<r><a/>text<b/></r>/element())`, `2`},
	{"document-node-test", `count(document { <a/> }/self::document-node())`, `1`},

	// castable with occurrence
	{"castable-empty-opt", `() castable as xs:integer?`, `true`},
	{"castable-empty", `() castable as xs:integer`, `false`},

	// date arithmetic through queries
	{"date-sub", `string(xs:date("2004-09-16") - xs:date("2004-09-14"))`, `P2D`},
	{"duration-mul", `string(xdt:dayTimeDuration("PT30M") * 4)`, `PT2H`},
	{"date-component", `year-from-date(xs:date("1967-01-02"))`, `1967`},

	// deep-equal through queries
	{"deep-equal-trees", `deep-equal(<a x="1"><b>t</b></a>, <a x="1"><b>t</b></a>)`, `true`},
	{"deep-equal-differs", `deep-equal(<a><b>t</b></a>, <a><b>u</b></a>)`, `false`},

	// typeswitch over nodes
	{"typeswitch-elem", `typeswitch (<a/>) case element(b) return "b" case element(a) return "a" default return "d"`, `a`},
	{"typeswitch-attr", `typeswitch (<e x="1"/>/@x) case attribute() return "attr" default return "d"`, `attr`},

	// fn:root and tree membership
	{"fn-root", `let $d := <r><a><b/></a></r> return ($d/a/b/fn:root(.) is $d)`, `true`},

	// string-function pipeline
	{"string-pipeline", `upper-case(normalize-space("  mixed   Case "))`, `MIXED CASE`},
	{"tokenize-count", `count(tokenize("a,b,,c", ","))`, `4`},

	// nested predicate with arithmetic position
	{"computed-position", `(10 to 20)[. mod 3 eq 0]`, `12 15 18`},
	{"position-arith", `string-join(for $x in ("a","b","c","d")[position() gt 2] return $x, "")`, `cd`},
}

func TestSemantics(t *testing.T) {
	for _, engine := range []struct {
		name string
		opts Options
	}{
		{"streaming", Options{}},
		{"eager", Options{Eager: true}},
	} {
		engine := engine
		t.Run(engine.name, func(t *testing.T) {
			for _, c := range semanticsCases {
				c := c
				t.Run(c.name, func(t *testing.T) {
					got, err := evalQuery(t, c.q, engine.opts)
					if err != nil {
						t.Fatalf("eval: %v", err)
					}
					if got != c.want {
						t.Errorf("got %q, want %q", got, c.want)
					}
				})
			}
		})
	}
}

// errorCases must raise dynamic errors with the right err: codes.
func TestDynamicErrors(t *testing.T) {
	cases := []struct {
		name string
		q    string
		code string
	}{
		{"div-zero", `1 idiv 0`, "FOAR0001"},
		{"decimal-div-zero", `1.0 div 0.0`, "FOAR0001"},
		{"type-arith", `"x" + 1`, "XPTY0004"},
		{"untyped-arith", `<a>baz</a> + 1`, "FORG0001"},
		{"cast-empty", `() cast as xs:integer`, "XPTY0004"},
		{"cast-bad", `"x" cast as xs:integer`, "FORG0001"},
		{"treat-violation", `("a" treat as xs:integer) `, "XPTY0004"},
		{"ebv-multi", `(1, 2) and true()`, "FORG0006"},
		{"value-comp-multi", `(1, 2) eq 1`, "XPTY0004"},
		{"step-on-atomic", `(1)/a`, "XPTY0004"},
		{"fn-error", `error("XQGO0001", "boom")`, "XQGO0001"},
		{"missing-doc", `doc("nope.xml")`, "FODC0002"},
		{"no-context-in-function", `declare function local:f() { . }; local:f()`, "XPDY0002"},
		{"untyped-general-comp", `<a>baz</a> = 42`, "FORG0001"},
		{"function-arg-type", `declare function local:f($x as xs:integer) { $x }; local:f("s")`, "XPTY0004"},
		{"function-result-type", `declare function local:f($x) as xs:integer { $x }; local:f("s")`, "XPTY0004"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := evalQuery(t, c.q, Options{})
			if err == nil {
				t.Fatal("expected an error")
			}
			if !xdm.IsCode(err, c.code) {
				t.Errorf("error = %v, want code %s", err, c.code)
			}
		})
	}
}

// TestLazyEvaluation reproduces the paper's lazy-evaluation examples: the
// endlessOnes recursion must terminate under "some ... satisfies", and
// positional access must not evaluate past its target.
func TestLazyEvaluation(t *testing.T) {
	got, err := evalQuery(t, `
	  declare function local:endlessOnes() { (1, local:endlessOnes()) };
	  some $x in local:endlessOnes() satisfies $x eq 1`, Options{})
	if err != nil {
		t.Fatalf("endlessOnes: %v", err)
	}
	if got != "true" {
		t.Errorf("endlessOnes = %q, want true", got)
	}

	// Positional access stops pulling: the error in the second item is
	// never evaluated by the streaming engine.
	got, err = evalQuery(t, `(1, 1 idiv 0, 3)[1]`, Options{})
	if err != nil {
		t.Fatalf("lazy positional: %v", err)
	}
	if got != "1" {
		t.Errorf("lazy positional = %q", got)
	}

	// An unused let binding is never evaluated.
	got, err = evalQuery(t, `let $dead := 1 idiv 0 return "alive"`, Options{})
	if err != nil {
		t.Fatalf("lazy let: %v", err)
	}
	if got != "alive" {
		t.Errorf("lazy let = %q", got)
	}

	// fn:exists pulls exactly one item of an infinite stream.
	got, err = evalQuery(t, `
	  declare function local:nat($n) { ($n, local:nat($n + 1)) };
	  exists(local:nat(0))`, Options{})
	if err != nil || got != "true" {
		t.Errorf("exists over infinite stream = %q, %v", got, err)
	}

	// Memoization: a let variable's producer runs once even with multiple
	// consumers (observable via construction identity).
	got, err = evalQuery(t, `let $n := <a/> return ($n is $n)`, Options{})
	if err != nil || got != "true" {
		t.Errorf("lazy memoization = %q, %v", got, err)
	}
}

// TestStreamedExecute checks ExecuteToWriter output equals Eval+serialize.
func TestStreamedExecute(t *testing.T) {
	for _, q := range []string{
		`for $b in /bib/book return <t y="{$b/@year}">{string($b/title)}</t>`,
		`<summary count="{count(//book)}"><first>{string((//title)[1])}</first></summary>`,
		`(1, 2, "x", <a/>, 4)`,
	} {
		parsed, err := xqparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(parsed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := p.Eval(testDynamic(t))
		if err != nil {
			t.Fatal(err)
		}
		want, err := serializer.SequenceToString(seq)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := p.ExecuteToWriter(testDynamic(t), &sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Errorf("query %s:\n execute %q\n eval    %q", q, sb.String(), want)
		}
	}
}

// TestIteratorEarlyStop: pulling must not drain the input. The first rows
// pull one item of the optimized plan and check it, and that no filter has
// passed more than that one item. The bound rows drain the plan and check
// that the operator named op passed at most max items: a positional bound
// stops the pull of its input, once for a parenthesized input and once per
// parent for a step's.
func TestIteratorEarlyStop(t *testing.T) {
	lines := "<Order>" + strings.Repeat("<OrderLine><Item><ID>i</ID></Item></OrderLine>", 40) + "</Order>"
	parents := "<r>" + strings.Repeat(`<a>`+strings.Repeat(`<b k="1"/>`, 5)+`</a>`, 3) + "</r>"
	for _, c := range []struct {
		src, doc, first string
		op              string // the operator whose items are bounded; "" for the one-pull rows
		max             int64
	}{
		{`/bib/book/title`, testBib, "TCP/IP Illustrated", "", 0},
		{`(/r/a[b = "1"])[1]`, `<r><a><b>1</b>first</a><a><b>1</b>second</a><a><b>2</b></a></r>`, "1first", "", 0},
		{`(/Order/OrderLine)[position() le 10]/Item/ID`, lines, "i", "fn:root(.)/child::Order/child::OrderLine", 12},
		{`/r/a/(b[@k])[position() le 2]`, parents, "", "child::b[attribute::k]", 6},
	} {
		parsed, err := xqparse.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(optimizer.Optimize(parsed, optimizer.Options{}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmlparse.ParseString(c.doc, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prof := p.NewProfile(false)
		it, err := p.Iterator(&Dynamic{ContextItem: doc.RootNode(), Prof: prof})
		if err != nil {
			t.Fatal(err)
		}
		first, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := first.(xdm.Node).StringValue(); got != c.first {
			t.Errorf("%s: first item = %q, want %q", c.src, got, c.first)
		}
		if c.op != "" {
			for ok && err == nil {
				_, ok, err = it.Next()
			}
			if err != nil {
				t.Fatalf("%s: %v", c.src, err)
			}
		}
		seen := false
		for _, op := range prof.Report().Operators {
			switch {
			case c.op == "" && op.Kind == "filter" && op.Items > 1:
				t.Errorf("%s: filter %s passed %d items for one pull", c.src, op.Detail, op.Items)
			case c.op != "" && op.Detail == c.op:
				seen = true
				if op.Items > c.max {
					t.Errorf("%s: %s passed %d items, want at most %d", c.src, op.Detail, op.Items, c.max)
				}
			}
		}
		if c.op != "" && !seen {
			t.Errorf("%s: no operator %s", c.src, c.op)
		}
	}
}

func TestMissingExternalVariable(t *testing.T) {
	parsed, err := xqparse.Parse(`declare variable $missing external; $missing`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(parsed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(&Dynamic{}); err == nil {
		t.Error("missing external variable must fail")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`$undeclared`,
		`fn:nosuchfunction(1)`,
		`concat("one")`, // arity
		`declare function local:f($x) { $x }; local:f(1, 2)`,
		`fn:position(1)`,
	}
	for _, src := range cases {
		parsed, err := xqparse.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(parsed, Options{}); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}
