package serializer

import (
	"io"
	"strings"
	"testing"

	"xqgo/internal/store"
	"xqgo/internal/tokens"
	"xqgo/internal/xdm"
)

func elemDoc(t *testing.T, build func(b *store.Builder)) xdm.Node {
	t.Helper()
	b := store.NewBuilder(store.BuilderOptions{})
	build(b)
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc.RootNode()
}

func TestSerializeBasics(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.LocalName("a"))
		if err := b.Attr(xdm.LocalName("x"), "1"); err != nil {
			t.Fatal(err)
		}
		b.StartElement(xdm.LocalName("b"))
		b.Text("hello")
		b.EndElement()
		b.StartElement(xdm.LocalName("empty"))
		b.EndElement()
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	want := `<a x="1"><b>hello</b><empty/></a>`
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestEscaping(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.LocalName("a"))
		if err := b.Attr(xdm.LocalName("q"), `he said "5 < 6 & 7 > 2"`); err != nil {
			t.Fatal(err)
		}
		b.Text(`text with < & >`)
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `q="he said &quot;5 &lt; 6 &amp; 7 &gt; 2&quot;"`) {
		t.Errorf("attribute escaping: %q", out)
	}
	if !strings.Contains(out, `text with &lt; &amp; &gt;`) {
		t.Errorf("text escaping: %q", out)
	}
}

func TestSequenceSerialization(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.LocalName("e"))
		b.EndElement()
	})
	// Adjacent atomics joined by a space; nodes break the run.
	out, err := SequenceToString(xdm.Sequence{
		xdm.NewInteger(1), xdm.NewInteger(2), n, xdm.NewString("x"), xdm.NewString("y"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != "1 2<e/>x y" {
		t.Errorf("sequence output = %q", out)
	}
}

func TestNamespaceSerialization(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.Name("urn:d", "root"))
		b.StartElement(xdm.Name("urn:d", "child"))
		b.EndElement()
		b.StartElement(xdm.Name("urn:other", "foreign"))
		b.EndElement()
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	// The default namespace is claimed once; the foreign element re-binds.
	if !strings.HasPrefix(out, `<root xmlns="urn:d">`) {
		t.Errorf("default ns binding: %q", out)
	}
	if strings.Count(out, `xmlns="urn:d"`) != 1 {
		t.Errorf("default ns declared once: %q", out)
	}
	if !strings.Contains(out, `xmlns="urn:other"`) && !strings.Contains(out, `xmlns:`) {
		t.Errorf("foreign element needs a binding: %q", out)
	}
}

func TestPrefixedAttributeNamespace(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.LocalName("a"))
		if err := b.Attr(xdm.QName{Space: "urn:x", Local: "attr", Prefix: "x"}, "v"); err != nil {
			t.Fatal(err)
		}
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	// Attributes cannot use the default namespace: a prefix must appear.
	if !strings.Contains(out, `xmlns:x="urn:x"`) || !strings.Contains(out, `x:attr="v"`) {
		t.Errorf("prefixed attribute: %q", out)
	}
}

func TestCommentPIDocSerialization(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartDocument()
		b.StartElement(xdm.LocalName("r"))
		b.Comment(" note ")
		b.PI("go", "fmt")
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	if out != `<r><!-- note --><?go fmt?></r>` {
		t.Errorf("got %q", out)
	}
}

func TestXMLDecl(t *testing.T) {
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.LocalName("a"))
		b.EndElement()
	})
	var sb strings.Builder
	if err := New(&sb, Options{}).Sequence(xdm.Sequence{n}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), `<?xml version="1.0"`) {
		t.Errorf("missing XML declaration: %q", sb.String())
	}
}

func TestPrefixCollisionGetsFreshPrefix(t *testing.T) {
	// Two different URIs whose hinted prefixes collide: the second must get
	// a generated prefix, not silently reuse the first binding.
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.LocalName("r"))
		if err := b.Attr(xdm.QName{Space: "urn:one", Local: "a", Prefix: "p"}, "1"); err != nil {
			t.Fatal(err)
		}
		if err := b.Attr(xdm.QName{Space: "urn:two", Local: "b", Prefix: "p"}, "2"); err != nil {
			t.Fatal(err)
		}
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `xmlns:p="urn:one"`) {
		t.Errorf("first hint should win: %q", out)
	}
	if !strings.Contains(out, `="urn:two"`) {
		t.Errorf("second URI must be bound: %q", out)
	}
	if strings.Count(out, `xmlns:p=`) != 1 {
		t.Errorf("prefix p bound twice: %q", out)
	}
}

func TestDefaultNamespaceUndeclare(t *testing.T) {
	// A no-namespace child under a default-namespaced parent needs
	// xmlns="" to round-trip.
	n := elemDoc(t, func(b *store.Builder) {
		b.StartElement(xdm.Name("urn:d", "outer"))
		b.StartElement(xdm.LocalName("inner"))
		b.EndElement()
		b.EndElement()
	})
	out, err := NodeToString(n)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `<inner xmlns=""`) && !strings.Contains(out, `xmlns=""`) {
		t.Errorf("default namespace must be undeclared for inner: %q", out)
	}
}

// Token-level cases: the writer is driven the way Execute, the subscription
// framer and the streaming evaluator drive it.

func start(space, local, prefix string) tokens.Token {
	return tokens.Token{Kind: tokens.KindStartElement, Name: xdm.QName{Space: space, Local: local, Prefix: prefix}}
}

func attr(space, local, prefix, v string) tokens.Token {
	return tokens.Token{Kind: tokens.KindAttribute, Name: xdm.QName{Space: space, Local: local, Prefix: prefix}, Value: v}
}

func nsDecl(prefix, uri string) tokens.Token {
	return tokens.Token{Kind: tokens.KindNamespace, Name: xdm.LocalName(prefix), Value: uri}
}

func text(v string) tokens.Token { return tokens.Token{Kind: tokens.KindText, Value: v} }

var end = tokens.Token{Kind: tokens.KindEndElement}

func writeTokens(toks ...tokens.Token) (string, error) {
	var b strings.Builder
	w := New(&b, Options{OmitXMLDecl: true})
	for _, t := range toks {
		if err := w.WriteToken(t); err != nil {
			return b.String(), err
		}
	}
	return b.String(), w.Close()
}

func TestWriterTokens(t *testing.T) {
	const xmlNS = "http://www.w3.org/XML/1998/namespace"
	cases := []struct {
		name string
		toks []tokens.Token
		want string
	}{
		{"markup, comment, PI, transparent document",
			[]tokens.Token{{Kind: tokens.KindStartDocument}, start("", "book", ""), attr("", "year", "", "1967"),
				start("", "title", ""), text("No Kidding"), end,
				{Kind: tokens.KindComment, Value: "c"}, {Kind: tokens.KindPI, Name: xdm.LocalName("pi"), Value: "data"},
				end, {Kind: tokens.KindEndDocument}},
			`<book year="1967"><title>No Kidding</title><!--c--><?pi data?></book>`},
		{"atomics joined by one space, nodes break the run",
			[]tokens.Token{{Kind: tokens.KindAtomic, Atom: xdm.NewInteger(1)}, {Kind: tokens.KindAtomic, Atom: xdm.NewInteger(2)},
				start("", "e", ""), end, {Kind: tokens.KindAtomic, Atom: xdm.NewString("a<b")}},
			`1 2<e/>a&lt;b`},
		{"recorded declaration serves the element's own name",
			[]tokens.Token{start("urn:p", "a", ""), nsDecl("p", "urn:p"), start("urn:p", "b", "q"), end, end},
			`<p:a xmlns:p="urn:p"><p:b/></p:a>`},
		{"unused declaration survives; identical re-declaration does not",
			[]tokens.Token{start("", "w", ""), nsDecl("z", "urn:z"), start("", "v", ""), nsDecl("z", "urn:z"), end, end},
			`<w xmlns:z="urn:z"><v/></w>`},
		{"default namespace declared once, undeclared for a no-namespace child",
			[]tokens.Token{start("urn:d", "a", ""), nsDecl("", "urn:d"), start("urn:d", "b", ""), start("", "c", ""), end, end, end},
			`<a xmlns="urn:d"><b><c xmlns=""/></b></a>`},
		{"own prefix is declared when nothing is in scope",
			[]tokens.Token{start("urn:p", "w", "p"), text("1 2"), end},
			`<p:w xmlns:p="urn:p">1 2</p:w>`},
		{"no prefix of its own: an element takes the default namespace",
			[]tokens.Token{start("urn:p", "b", ""), nsDecl("q", "urn:q"), attr("urn:q", "x", "", "1"), text("t"), end},
			`<b xmlns:q="urn:q" xmlns="urn:p" q:x="1">t</b>`},
		{"an attribute never takes the default namespace",
			[]tokens.Token{start("urn:d", "a", ""), attr("urn:d", "x", "", "1"), end},
			`<a xmlns="urn:d" xmlns:ns1="urn:d" ns1:x="1"/>`},
		{"attribute prefix declared on the open start tag",
			[]tokens.Token{start("", "r", ""), attr("", "k", "", "v"), attr("urn:p", "x", "p", "1"), end},
			`<r k="v" xmlns:p="urn:p" p:x="1"/>`},
		{"a taken prefix is not reused for another URI",
			[]tokens.Token{start("", "r", ""), attr("urn:one", "a", "p", "1"), attr("urn:two", "b", "p", "2"), end},
			`<r xmlns:p="urn:one" p:a="1" xmlns:ns1="urn:two" ns1:b="2"/>`},
		{"own default declaration is for something else: fresh prefix",
			[]tokens.Token{start("urn:u", "b", ""), nsDecl("", "urn:v"), start("urn:v", "c", ""), end, end},
			`<ns1:b xmlns="urn:v" xmlns:ns1="urn:u"><c/></ns1:b>`},
		{"shadowed binding is not used",
			[]tokens.Token{start("urn:1", "a", ""), nsDecl("p", "urn:1"), start("", "m", ""), nsDecl("p", "urn:2"),
				start("urn:1", "c", ""), end, end, end},
			`<p:a xmlns:p="urn:1"><m xmlns:p="urn:2"><c xmlns="urn:1"/></m></p:a>`},
		{"xml prefix is never declared or renamed",
			[]tokens.Token{start("", "a", ""), nsDecl("xml", xmlNS), attr(xmlNS, "lang", "", "en"), end},
			`<a xml:lang="en"/>`},
		{"attribute values keep newline, tab and CR through a re-parse",
			[]tokens.Token{start("", "a", ""), attr("", "x", "", "l1\nl2\tt\r\"<&>"), text("a\rb<&>\"\n"), end},
			"<a x=\"l1&#10;l2&#9;t&#13;&quot;&lt;&amp;&gt;\">a&#13;b&lt;&amp;&gt;\"\n</a>"},
	}
	for _, c := range cases {
		got, err := writeTokens(c.toks...)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

func TestWriterErrors(t *testing.T) {
	// Attribute tokens the data model forbids carry the spec's codes.
	if _, err := writeTokens(attr("", "x", "", "1")); !xdm.IsCode(err, "SENR0001") {
		t.Errorf("top-level attribute: %v, want SENR0001", err)
	}
	if _, err := writeTokens(start("", "a", ""), end, attr("", "x", "", "1")); !xdm.IsCode(err, "SENR0001") {
		t.Errorf("attribute after a closed element: %v, want SENR0001", err)
	}
	if _, err := writeTokens(start("", "a", ""), text("t"), attr("", "x", "", "1")); !xdm.IsCode(err, "XQTY0024") {
		t.Errorf("attribute after content: %v, want XQTY0024", err)
	}
	// The expanded name decides, not the prefix; a child element starts over.
	if _, err := writeTokens(start("", "a", ""), attr("urn:p", "x", "p", "1"), attr("urn:p", "x", "q", "2")); !xdm.IsCode(err, "XQDY0025") {
		t.Errorf("duplicate attribute: %v, want XQDY0025", err)
	}
	if out, err := writeTokens(start("", "a", ""), attr("", "x", "", "1"), attr("urn:p", "x", "p", "2"),
		start("", "b", ""), attr("", "x", "", "3"), end, end); err != nil || out != `<a x="1" xmlns:p="urn:p" p:x="2"><b x="3"/></a>` {
		t.Errorf("same local name, different element or namespace: %q, %v", out, err)
	}
	// A broken token source is an internal error, not an XQuery one.
	for name, toks := range map[string][]tokens.Token{
		"unbalanced end":    {end},
		"unclosed element":  {start("", "a", "")},
		"namespace in text": {start("", "a", ""), text("t"), nsDecl("p", "urn:p")},
	} {
		_, err := writeTokens(toks...)
		if _, coded := err.(*xdm.Error); err == nil || coded {
			t.Errorf("%s: err = %v, want an uncoded error", name, err)
		}
	}
}

func TestWriterReset(t *testing.T) {
	var a, b strings.Builder
	w := New(&a, Options{OmitXMLDecl: true})
	for _, tok := range []tokens.Token{start("urn:p", "a", "p"), text("x")} {
		if err := w.WriteToken(tok); err != nil {
			t.Fatal(err)
		}
	}
	w.Reset(&b) // drops the open element and its binding
	for _, tok := range []tokens.Token{start("urn:p", "b", "p"), end} {
		if err := w.WriteToken(tok); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if b.String() != `<p:b xmlns:p="urn:p"/>` || w.Tokens() != 4 {
		t.Errorf("after Reset: %q, %d tokens", b.String(), w.Tokens())
	}
}

// A document without namespaces takes no lookup and allocates nothing per
// token once the writer's buffers have grown.
func TestWriterNoAllocsPerToken(t *testing.T) {
	toks := []tokens.Token{start("", "book", ""), attr("", "year", "", "1967"),
		start("", "title", ""), text("No Kidding"), end, end}
	w := New(io.Discard, Options{OmitXMLDecl: true})
	run := func() {
		w.Reset(io.Discard)
		for _, tok := range toks {
			if err := w.WriteToken(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("%v allocations per 6-token document, want 0", n)
	}
}
