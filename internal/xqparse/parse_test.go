package xqparse

import (
	"strings"
	"testing"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// parseOK parses a query body and returns its rendered expression tree.
func parseOK(t *testing.T, src string) string {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return expr.String(e)
}

func TestLiterals(t *testing.T) {
	cases := map[string]string{
		`42`:          `42`,
		`4.5`:         `4.5`,
		`1.25e2`:      `125`,
		`"str"`:       `"str"`,
		`'str'`:       `"str"`,
		`"a""b"`:      `"a\"b"`,
		`'a''b'`:      `"a'b"`,
		`"&lt;x&gt;"`: `"<x>"`,
		`"&#65;"`:     `"A"`,
		`"&#x41;"`:    `"A"`,
	}
	for src, want := range cases {
		if got := parseOK(t, src); got != want {
			t.Errorf("parse %q = %s, want %s", src, got, want)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	cases := map[string]string{
		`1 + 2 * 3`:                   `(1 + (2 * 3))`,
		`(1 + 2) * 3`:                 `((1 + 2) * 3)`,
		`1 - 2 - 3`:                   `((1 - 2) - 3)`,
		`2 * 3 mod 4`:                 `((2 * 3) mod 4)`,
		`8 idiv 2 div 2`:              `((8 idiv 2) div 2)`,
		`1 < 2 + 3`:                   `(1 < (2 + 3))`,
		`1 eq 2 or 3 eq 4`:            `((1 eq 2) or (3 eq 4))`,
		`1 eq 1 and 2 eq 2 or 3 eq 3`: `(((1 eq 1) and (2 eq 2)) or (3 eq 3))`,
		`1 to 3`:                      `(1 to 3)`,
		`-3 + 2`:                      `(-3 + 2)`,
		`2 + -3`:                      `(2 + -3)`,
		`- 3 * 2`:                     `(-3 * 2)`, // unary binds the value expr
		// One row per adjacent pair of levels, parseOr … parseUnary.
		`1 eq 1 and 2 eq 2`:                             `((1 eq 1) and (2 eq 2))`,
		`1 to 2 = 2 to 3`:                               `((1 to 2) = (2 to 3))`,
		`1 + 1 to 2 + 3`:                                `((1 + 1) to (2 + 3))`,
		`$a * $b | $c`:                                  `($a * ($b union $c))`,
		`$a | $b intersect $c`:                          `($a union ($b intersect $c))`,
		`$a union $b except $c`:                         `($a union ($b except $c))`,
		`$a intersect $b instance of node()*`:           `($a intersect ($b instance of node()*))`,
		`$a treat as node() instance of node()`:         `(($a treat as node()) instance of node())`,
		`$a castable as xs:integer treat as xs:boolean`: `(($a castable as xs:integer) treat as xs:boolean)`,
		`$a cast as xs:integer castable as xs:string`:   `(($a cast as xs:integer) castable as xs:string)`,
		`-$a cast as xs:string`:                         `(-$a cast as xs:string)`, // (-$a) cast, not -($a cast)
	}
	for src, want := range cases {
		if got := parseOK(t, src); got != want {
			t.Errorf("parse %q = %s, want %s", src, got, want)
		}
	}
	// The non-associative levels take one operator: a second is a syntax
	// error.
	for _, src := range []string{
		`1 eq 1 eq 1`,
		`1 to 2 to 3`,
		`1 cast as xs:integer cast as xs:string`,
		`1 instance of xs:integer instance of xs:boolean`,
	} {
		if _, err := Parse(src); !xdm.IsCode(err, "XPST0003") {
			t.Errorf("Parse(%q) error = %v, want err:XPST0003", src, err)
		}
	}
}

func TestComparisonKinds(t *testing.T) {
	cases := map[string]string{
		`$a eq $b`: `($a eq $b)`,
		`$a ne $b`: `($a ne $b)`,
		`$a = $b`:  `($a = $b)`,
		`$a != $b`: `($a != $b)`,
		`$a <= $b`: `($a <= $b)`,
		`$a is $b`: `($a is $b)`,
		`$a << $b`: `($a << $b)`,
		`$a >> $b`: `($a >> $b)`,
	}
	for src, want := range cases {
		if got := parseOK(t, src); got != want {
			t.Errorf("parse %q = %s, want %s", src, got, want)
		}
	}
}

func TestPaths(t *testing.T) {
	cases := map[string]string{
		`/bib`:                                `fn:root(.)/child::bib`,
		`/bib/book`:                           `fn:root(.)/child::bib/child::book`,
		`//book`:                              `fn:root(.)/descendant-or-self::node()/child::book`,
		`$x/child::bib`:                       `$x/child::bib`,
		`$x/parent::*`:                        `$x/parent::*`,
		`$x/..`:                               `$x/parent::node()`,
		`$x/@year`:                            `$x/attribute::year`,
		`$x//comment()`:                       `$x/descendant-or-self::node()/child::comment()`,
		`$x/descendant::a`:                    `$x/descendant::a`,
		`$x/ancestor-or-self::a`:              `$x/ancestor-or-self::a`,
		`$x/following-sibling::b`:             `$x/following-sibling::b`,
		`$x/self::node()`:                     `$x/self::node()`,
		`book[3]`:                             `child::book[3]`,
		`book[3]/author[1]`:                   `child::book[3]/child::author[1]`,
		`book[@price < 25]`:                   `child::book[(attribute::price < 25)]`,
		`//book[author/firstname = "ronald"]`: `fn:root(.)/descendant-or-self::node()/child::book[(child::author/child::firstname = "ronald")]`,
		`book[3]/author[1 to 2]`:              `child::book[3]/child::author[(1 to 2)]`,
		`*`:                                   `child::*`,
		`$x/*`:                                `$x/child::*`,
		`$x/text()`:                           `$x/child::text()`,
		`.`:                                   `.`,
		`$x/element(a)`:                       `$x/child::element(a)`,
		`$x/attribute::attribute()`:           `$x/attribute::attribute()`,
		`document("b.xml")/bib`:               `fn:document("b.xml")/child::bib`,
	}
	for src, want := range cases {
		if got := parseOK(t, src); got != want {
			t.Errorf("parse %q =\n  %s\nwant\n  %s", src, got, want)
		}
	}
}

func TestWildcardNames(t *testing.T) {
	q, err := Parse(`declare namespace ns = "urn:n"; $x/ns:* , $x/*:local, $x/ns:a`)
	if err != nil {
		t.Fatal(err)
	}
	s := expr.String(q.Body)
	if !strings.Contains(s, "ns:*") {
		t.Errorf("ns:* wildcard lost: %s", s)
	}
	if !strings.Contains(s, "*:local") {
		t.Errorf("*:local wildcard lost: %s", s)
	}
}

func TestFLWOR(t *testing.T) {
	got := parseOK(t, `for $x at $i in (1,2), $y in (3,4) let $z := $x where $x eq $y order by $z descending return ($x, $i)`)
	want := `for $x at $i in (1, 2) for $y in (3, 4) let $z := $x where ($x eq $y) order by $z descending return ($x, $i)`
	if got != want {
		t.Errorf("flwor:\n got  %s\n want %s", got, want)
	}
}

func TestQuantified(t *testing.T) {
	got := parseOK(t, `some $x in (1,2,3) satisfies $x eq 2`)
	if got != `some $x in (1, 2, 3) satisfies ($x eq 2)` {
		t.Errorf("some: %s", got)
	}
	got = parseOK(t, `every $x in $s, $y in $t satisfies $x lt $y`)
	if got != `every $x in $s, $y in $t satisfies ($x lt $y)` {
		t.Errorf("every: %s", got)
	}
}

func TestConditionalsAndTypes(t *testing.T) {
	cases := map[string]string{
		`if ($x) then 1 else 2`:           `if ($x) then 1 else 2`,
		`$x instance of xs:integer`:       `($x instance of xs:integer)`,
		`$x instance of element()*`:       `($x instance of element()*)`,
		`$x instance of item()+`:          `($x instance of item()+)`,
		`$x instance of empty-sequence()`: `($x instance of empty-sequence())`,
		`$x cast as xs:date`:              `($x cast as xs:date)`,
		`$x cast as xs:integer?`:          `($x cast as xs:integer?)`,
		`$x castable as xs:double`:        `($x castable as xs:double)`,
		`$x treat as node()`:              `($x treat as node())`,
		`$a union $b`:                     `($a union $b)`,
		`$a | $b`:                         `($a union $b)`,
		`$a intersect $b`:                 `($a intersect $b)`,
		`$a except $b`:                    `($a except $b)`,
	}
	for src, want := range cases {
		if got := parseOK(t, src); got != want {
			t.Errorf("parse %q = %s, want %s", src, got, want)
		}
	}
}

func TestTypeswitch(t *testing.T) {
	got := parseOK(t, `typeswitch ($x) case xs:integer return 1 case $e as element() return 2 default $d return 3`)
	want := `typeswitch ($x) case xs:integer return 1 case element() return 2 default return 3`
	if got != want {
		t.Errorf("typeswitch: %s", got)
	}
}

func TestConstructors(t *testing.T) {
	cases := map[string]string{
		`<a/>`:                            `element a {}`,
		`<a b="1"/>`:                      `element a {}`,
		`<a>text</a>`:                     `element a {text {"text"}}`,
		`<a>{1 + 2}</a>`:                  `element a {(1 + 2)}`,
		`<a>x{$v}y</a>`:                   `element a {text {"x"}, $v, text {"y"}}`,
		`element {$n} {1}`:                `element {$n} {1}`,
		`element foo {}`:                  `element foo {}`,
		`attribute size {5}`:              `attribute size {5}`,
		`attribute {$n} {5}`:              `attribute {$n} {5}`,
		`text {"x"}`:                      `text {"x"}`,
		`comment { "c" }`:                 `comment {"c"}`,
		`document { <a/> }`:               `document {element a {}}`,
		`processing-instruction pi {"d"}`: `processing-instruction pi {"d"}`,
	}
	for src, want := range cases {
		if got := parseOK(t, src); got != want {
			t.Errorf("parse %q = %s, want %s", src, got, want)
		}
	}
}

func TestDirectConstructorDetails(t *testing.T) {
	// Attribute value templates.
	e, err := ParseExpr(`<a x="lit{1+2}tail" y='{""}'/>`)
	if err != nil {
		t.Fatal(err)
	}
	ec := e.(*expr.ElemConstructor)
	if len(ec.Attrs) != 2 {
		t.Fatalf("attrs = %d", len(ec.Attrs))
	}
	if len(ec.Attrs[0].Parts) != 3 {
		t.Errorf("x parts = %d, want 3", len(ec.Attrs[0].Parts))
	}
	// Nested elements and escaped braces.
	got := parseOK(t, `<a><b>{{literal brace}}</b></a>`)
	if got != `element a {element b {text {"{literal brace}"}}}` {
		t.Errorf("escaped braces: %s", got)
	}
	// Boundary whitespace stripped by default.
	got = parseOK(t, "<a>\n  <b/>\n</a>")
	if got != `element a {element b {}}` {
		t.Errorf("boundary space: %s", got)
	}
	// CDATA preserved.
	got = parseOK(t, `<a><![CDATA[<raw>&]]></a>`)
	if got != `element a {text {"<raw>&"}}` {
		t.Errorf("cdata: %s", got)
	}
	// Comments and PIs in content.
	got = parseOK(t, `<a><!--c--><?t d?></a>`)
	if got != `element a {comment {"c"}, processing-instruction t {" d"}}` &&
		got != `element a {comment {"c"}, processing-instruction t {"d"}}` {
		t.Errorf("comment/pi content: %s", got)
	}
}

func TestBoundarySpacePreserve(t *testing.T) {
	q, err := Parse(`declare boundary-space preserve; <a> <b/> </a>`)
	if err != nil {
		t.Fatal(err)
	}
	s := expr.String(q.Body)
	if !strings.Contains(s, `text {" "}`) {
		t.Errorf("preserve should keep whitespace: %s", s)
	}
}

func TestNamespaceScopesInConstructors(t *testing.T) {
	// Namespace declared on the constructor applies to names inside it.
	q, err := Parse(`declare namespace ns = "uri1";
	  <b xmlns:ns="uri2">{ <ns:a/> }</b>`)
	if err != nil {
		t.Fatal(err)
	}
	elem := q.Body.(*expr.ElemConstructor)
	inner := elem.Content[0].(*expr.ElemConstructor)
	if inner.Name.Space != "uri2" {
		t.Errorf("inner ns:a resolved to %q, want uri2 (constructor scope wins)", inner.Name.Space)
	}
	// Outside the constructor, ns is uri1.
	q2, err := Parse(`declare namespace ns = "uri1"; (<b xmlns:ns="uri2"/>, <ns:c/>)`)
	if err != nil {
		t.Fatal(err)
	}
	seq := q2.Body.(*expr.Seq)
	c := seq.Items[1].(*expr.ElemConstructor)
	if c.Name.Space != "uri1" {
		t.Errorf("ns:c after the constructor = %q, want uri1", c.Name.Space)
	}
}

func TestProlog(t *testing.T) {
	q, err := Parse(`
	  xquery version "1.0";
	  declare namespace foo = "urn:foo";
	  declare default element namespace "urn:def";
	  declare variable $x as xs:integer := 3;
	  declare variable $ext external;
	  declare function local:double($n as xs:integer) as xs:integer { $n * 2 };
	  declare function triple($n) { $n * 3 };
	  local:double($x) + triple($x)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Namespaces["foo"] != "urn:foo" {
		t.Error("namespace decl")
	}
	if q.DefaultElemNS != "urn:def" {
		t.Error("default element namespace")
	}
	if len(q.Vars) != 2 || q.Vars[0].Name.Local != "x" || !q.Vars[1].External {
		t.Errorf("vars = %+v", q.Vars)
	}
	if q.Vars[0].Type == nil {
		t.Error("variable type")
	}
	if len(q.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(q.Funcs))
	}
	if q.Funcs[0].Name.Space != NSLocal || q.Funcs[1].Name.Space != NSLocal {
		t.Error("declared functions live in the local namespace")
	}
	if q.Funcs[0].Ret == nil || q.Funcs[0].Params[0].Type == nil {
		t.Error("function signature types")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`1 +`, "expected an expression"},
		{`(1, 2`, `expected ")"`},
		{`for $x in`, "expected an expression"},
		{`for $x return 1`, `expected "in"`},
		{`if (1) then 2`, `"else"`},
		{`$x instance of xs:nosuch`, "unknown atomic type"},
		{`<a>`, "unterminated element"},
		{`<a></b>`, "does not match"},
		{`<a x="{1}{" />`, "unterminated"},
		{`ns:foo()`, "undeclared namespace prefix"},
		{`$x/following::a`, "not supported"},
		{`validate { $x }`, "schema"},
		{`import schema "x";`, "not supported"},
		{`module namespace m = "x";`, "not supported"},
		{`declare function f($x) external;`, "external functions"},
		{`1; 2`, "unexpected"},
		{`"unterminated`, "unterminated string"},
		{`(: unclosed comment`, "unterminated comment"},
		{`<a>}</a>`, `single "}"`},
		{"'\v'", "1:2: invalid character U+000B"},
		{"<a>\x00</a>", "1:4: invalid character U+0000"},
		{"'\xff'", "1:2: invalid UTF-8"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) || !xdm.IsCode(err, "XPST0003") {
			t.Errorf("Parse(%q) error = %q, want err:XPST0003 with substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestCommentsNestAndSkip(t *testing.T) {
	got := parseOK(t, `1 (: outer (: inner :) still :) + 2`)
	if got != `(1 + 2)` {
		t.Errorf("comments: %s", got)
	}
}

func TestPositionPreserved(t *testing.T) {
	e, err := ParseExpr("\n\n  42")
	if err != nil {
		t.Fatal(err)
	}
	if p := e.Span(); p.Line != 3 || p.Col != 3 {
		t.Errorf("position = %+v, want 3:3", p)
	}
}

func TestKeywordsAreNotReserved(t *testing.T) {
	// "for", "if", "element" are legal element names in paths.
	for _, src := range []string{`$x/for`, `$x/if`, `$x/element`, `$x/return`, `$x/declare`} {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
	// And computed constructors still work by lookahead.
	if _, err := ParseExpr(`element div { 3 }`); err != nil {
		t.Errorf("element div {}: %v", err)
	}
}

func TestDeclareAsElementName(t *testing.T) {
	// Regression: "declare" followed by a non-declaration keyword is an
	// ordinary path step, not a prolog entry (and must not hang the parser).
	for _, src := range []string{`$x/declare`, `declare/foo`, `declare`} {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
}

func TestGroupBySyntax(t *testing.T) {
	got := parseOK(t, `for $x in (1,2) group by $k := $x mod 2 return count($x)`)
	want := `for $x in (1, 2) group by $k := ($x mod 2) return fn:count($x)`
	if got != want {
		t.Errorf("group by:\n got  %s\n want %s", got, want)
	}
	// Multiple keys.
	if _, err := ParseExpr(`for $x in (1) group by $a := 1, $b := 2 return $x`); err != nil {
		t.Errorf("multi-key group by: %v", err)
	}
	// group by requires := form.
	if _, err := ParseExpr(`for $x in (1) group by $x return $x`); err == nil {
		t.Error(`bare "group by $x" should fail (":=" form required)`)
	}
}

func TestTryCatchSyntax(t *testing.T) {
	got := parseOK(t, `try { 1 idiv 0 } catch * { "e" }`)
	if got != `try {(1 idiv 0)} catch * {"e"}` {
		t.Errorf("try/catch: %s", got)
	}
	// Only wildcard catches are supported.
	if _, err := ParseExpr(`try { 1 } catch err:FOAR0001 { 2 }`); err == nil {
		t.Error("named catch clauses should be rejected")
	}
	// "try" as an element name still parses.
	if _, err := ParseExpr(`$x/try`); err != nil {
		t.Errorf("try as name test: %v", err)
	}
}

func TestIgnoredDeclarations(t *testing.T) {
	// Accepted-and-ignored prolog declarations must not break the body.
	srcs := []string{
		`declare construction strip; 1`,
		`declare ordering ordered; 1`,
		`declare copy-namespaces no-preserve, no-inherit; 1`,
		`declare option x:opt "v"; 1`,
		`declare base-uri "http://example.com/"; 1`,
		`declare boundary-space strip; 1`,
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
