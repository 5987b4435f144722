package optimizer

import (
	"testing"

	"xqgo/internal/xqparse"
)

// extract parses and projects a query, returning the path-set rendering
// ("*keep-all*" when the analysis gave up entirely).
func extract(t *testing.T, src string) string {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return ExtractPaths(q).String()
}

func TestExtractPaths(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		// Serialized result: target subtrees kept.
		{`/bib/book/title`, `/bib/book/title#`},
		// EBV/count contexts need only the node.
		{`count(/bib/book)`, `/bib/book`},
		{`if (/bib/book) then 1 else 0`, `/bib/book`},
		{`empty(/site/regions)`, `/site/regions`},
		// Predicates on attributes materialize the owner; comparison on a
		// child keeps the child's subtree.
		{`/bib/book[@year = "1994"]/title`, `/bib/book /bib/book/title#`},
		{`/bib/book[price > 30]/title`, `/bib/book/price# /bib/book/title#`},
		// Descendant steps become any-depth steps; a bare // result keeps
		// the matched subtree.
		{`//title`, `//title#`},
		{`/site//item/name`, `/site//item/name#`},
		{`count(//book)`, `//book`},
		// FLWOR: for-binding cardinality is observed; returned content kept.
		{`for $b in /bib/book return $b/title`, `/bib/book /bib/book/title#`},
		{`for $b in /bib/book where $b/@year = "2000" return $b/author`,
			`/bib/book /bib/book/author#`},
		// Atomized targets keep subtrees.
		{`sum(/order/line/price)`, `/order/line/price#`},
		{`string(/a/b)`, `/a/b#`},
		// fn:doc anchors at the (projected) root too.
		{`doc("x.xml")/bib/book/title`, `/bib/book/title#`},
		// Constructors copy their content.
		{`<r>{/a/b}</r>`, `/a/b#`},
		// node()/text() steps force the parent subtree.
		{`/a/b/text()`, `/a/b#`},
		{`/a/node()`, `/a#`},
		// Wildcards.
		{`/a/*/c`, `/a/*/c#`},
		// Reverse axes defeat projection.
		{`/a/b/..`, `*keep-all*`},
		{`/a/b/parent::a`, `*keep-all*`},
		// The bare root / context item keeps the whole document (the "/#"
		// path set is not projectable).
		{`/`, `/#`},
		{`.`, `/#`},
		// External vars cannot hold projected-document nodes (the document
		// is created during execution), so their navigation adds no paths.
		{`declare variable $x external; count($x/a)`, ``},
		// Set operations union their sides.
		{`/a/b union /a/c`, `/a/b# /a/c#`},
		// User functions are analyzed through; recursion degrades safely.
		{`declare function local:t($x) { $x/title }; local:t(/bib/book)`,
			`/bib/book/title#`},
		{`declare function local:r($x) { local:r($x) }; local:r(/bib/book)`,
			`*keep-all*`},
		// An omitted focus argument is ".": the focus is read as the
		// built-in's record says (string value, name, or the root).
		{`/bib/book/title/string()`, `/bib/book/title#`},
		{`string()`, `/#`},
		{`count(/bib/book[string-length() gt 40])`, `/bib/book#`},
		{`/bib/book/title/name()`, `/bib/book/title`},
		{`for $b in /bib/book return $b/title/string()`, `/bib/book /bib/book/title#`},
		{`/bib/book[1]/title/root()/bib/book[2]/price/string(.)`, `/bib/book/title /bib/book/price#`},
		{`/bib/book/price/number()`, `/bib/book/price#`},
		// A right side that runs once per left item counts every one: the
		// left elements, or every node below a //.
		{`/bib/book/0`, `/bib/book`},
		{`/bib/book/position()`, `/bib/book`},
		{`//string(a)`, `//a# /#`},
		{`//(a | b)`, `//a# //b#`},
	}
	for _, c := range cases {
		if got := extract(t, c.src); got != c.want {
			t.Errorf("ExtractPaths(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}
