package xmlparse

import (
	"strings"
	"testing"

	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
)

func parse(t *testing.T, src string) *xdm.Node {
	t.Helper()
	doc, err := ParseString(src, Options{URI: "test.xml"})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	n := xdm.Node(doc.RootNode())
	return &n
}

func TestBasicParse(t *testing.T) {
	root := *parse(t, `<book year="1967"><title>The politics of experience</title><author>R.D. Laing</author></book>`)
	if root.Kind() != xdm.DocumentNode {
		t.Fatal("root is the document node")
	}
	book := root.ChildrenOf()[0]
	if book.NodeName().Local != "book" {
		t.Fatal("book element")
	}
	if got := book.AttributesOf()[0].StringValue(); got != "1967" {
		t.Errorf("@year = %q", got)
	}
	kids := book.ChildrenOf()
	if len(kids) != 2 {
		t.Fatalf("children = %d", len(kids))
	}
	if kids[1].StringValue() != "R.D. Laing" {
		t.Errorf("author = %q", kids[1].StringValue())
	}
}

func TestNamespaces(t *testing.T) {
	root := *parse(t, `<book xmlns="www.amazon.com" xmlns:amz="urn:amz">
	  <title>T</title><amz:ref amz:isbn="1341"/></book>`)
	book := root.ChildrenOf()[0]
	if book.NodeName().Space != "www.amazon.com" {
		t.Errorf("default namespace: %q", book.NodeName().Space)
	}
	var ref xdm.Node
	for _, c := range book.ChildrenOf() {
		if c.Kind() == xdm.ElementNode && c.NodeName().Local == "ref" {
			ref = c
		}
	}
	if ref == nil || ref.NodeName().Space != "urn:amz" {
		t.Fatalf("prefixed element: %v", ref)
	}
	attr := ref.AttributesOf()[0]
	if attr.NodeName().Space != "urn:amz" || attr.NodeName().Local != "isbn" {
		t.Errorf("prefixed attribute: %v", attr.NodeName())
	}
	// Unprefixed attributes have no namespace even under a default ns.
	root2 := *parse(t, `<a xmlns="u" x="1"/>`)
	a := root2.ChildrenOf()[0]
	if a.AttributesOf()[0].NodeName().Space != "" {
		t.Error("unprefixed attribute must have no namespace")
	}
}

func TestMixedContent(t *testing.T) {
	root := *parse(t, `<section>The great <title>Persons</title> Even facts...</section>`)
	sec := root.ChildrenOf()[0]
	kids := sec.ChildrenOf()
	if len(kids) != 3 {
		t.Fatalf("mixed content children = %d", len(kids))
	}
	if kids[0].Kind() != xdm.TextNode || kids[1].Kind() != xdm.ElementNode || kids[2].Kind() != xdm.TextNode {
		t.Error("mixed content kinds")
	}
	if sec.StringValue() != "The great Persons Even facts..." {
		t.Errorf("string value = %q", sec.StringValue())
	}
}

func TestCommentsAndPIs(t *testing.T) {
	root := *parse(t, `<a><!-- a comment --><?target data here?><b/></a>`)
	kids := root.ChildrenOf()[0].ChildrenOf()
	if len(kids) != 3 {
		t.Fatalf("children = %d", len(kids))
	}
	if kids[0].Kind() != xdm.CommentNode || kids[0].StringValue() != " a comment " {
		t.Errorf("comment = %q", kids[0].StringValue())
	}
	if kids[1].Kind() != xdm.PINode || kids[1].NodeName().Local != "target" || kids[1].StringValue() != "data here" {
		t.Errorf("pi = %v %q", kids[1].NodeName(), kids[1].StringValue())
	}
}

func TestEntitiesAndCDATA(t *testing.T) {
	root := *parse(t, `<a>&lt;tag&gt; &amp; more <![CDATA[<raw> & stuff]]></a>`)
	if got := root.StringValue(); got != "<tag> & more <raw> & stuff" {
		t.Errorf("decoded content = %q", got)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b>x</b>\n  <c>y</c>\n</a>"
	keep, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strip, err := ParseString(src, Options{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	a1 := keep.RootNode().ChildrenOf()[0]
	a2 := strip.RootNode().ChildrenOf()[0]
	if len(a1.ChildrenOf()) != 5 { // ws, b, ws, c, ws
		t.Errorf("preserved children = %d, want 5", len(a1.ChildrenOf()))
	}
	if len(a2.ChildrenOf()) != 2 { // b, c
		t.Errorf("stripped children = %d, want 2", len(a2.ChildrenOf()))
	}
	// Whitespace inside mixed content survives stripping.
	m, err := ParseString("<a>hello <b>w</b> world</a>", Options{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RootNode().StringValue(); got != "hello w world" {
		t.Errorf("mixed content after strip = %q", got)
	}
}

// XML whitespace is space, tab, CR and LF only: Unicode spaces such as U+00A0
// are character data, neither ignorable outside the root nor strippable.
func TestUnicodeSpaceIsCharacterData(t *testing.T) {
	if _, err := ParseString("<r/>\u00a0", Options{}); err == nil ||
		!strings.Contains(err.Error(), "character data outside the root element") {
		t.Errorf("U+00A0 after the root element: err = %v, want character data outside the root element", err)
	}
	for _, sp := range []string{"&#160;", "\u0085", "\u2003"} {
		doc, err := ParseString("<r>"+sp+"<b/></r>", Options{StripWhitespace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := doc.NumNodes(); got != 4 { // document, r, text, b
			t.Errorf("<r>%s<b/></r> stripped to %d nodes, want 4 (the text node is not whitespace)", sp, got)
		}
	}
	if doc, err := ParseString("<r> \t\r\n<b/></r>", Options{StripWhitespace: true}); err != nil || doc.NumNodes() != 3 {
		t.Errorf("XML whitespace must still be stripped: nodes = %d, err = %v", doc.NumNodes(), err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                 // no root
		`<a>`,              // unclosed
		`<a></b>`,          // mismatched
		`<a/><b/>`,         // multiple roots
		`text only`,        // no element
		`<a x="1" x="2"/>`, // duplicate attribute
		`<a><b></a></b>`,   // improper nesting
	}
	for _, src := range cases {
		if _, err := ParseString(src, Options{}); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestRoundTripThroughSerializer(t *testing.T) {
	cases := []string{
		`<a/>`,
		`<a b="1" c="2"/>`,
		`<a><b>text</b><c/></a>`,
		`<a>one<b/>two</a>`,
		`<a>&lt;escaped&gt; &amp; quoted</a>`,
		`<r><!--c--><?pi d?></r>`,
	}
	for _, src := range cases {
		doc, err := ParseString(src, Options{})
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		out, err := serializer.NodeToString(doc.RootNode())
		if err != nil {
			t.Errorf("serialize %q: %v", src, err)
			continue
		}
		doc2, err := ParseString(out, Options{})
		if err != nil {
			t.Errorf("reparse of %q (%q): %v", src, out, err)
			continue
		}
		out2, _ := serializer.NodeToString(doc2.RootNode())
		if out != out2 {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, out, out2)
		}
	}
}

func TestNamespaceRoundTrip(t *testing.T) {
	src := `<p:a xmlns:p="urn:p" xmlns="urn:d"><b/><p:c attr="v"/></p:a>`
	doc, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := serializer.NodeToString(doc.RootNode())
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := ParseString(out, Options{})
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	r1 := doc.RootNode().ChildrenOf()[0]
	r2 := doc2.RootNode().ChildrenOf()[0]
	if !r1.NodeName().Equal(r2.NodeName()) {
		t.Errorf("root name: %v vs %v", r1.NodeName(), r2.NodeName())
	}
	c1 := r1.ChildrenOf()
	c2 := r2.ChildrenOf()
	if len(c1) != len(c2) {
		t.Fatalf("children: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if !c1[i].NodeName().Equal(c2[i].NodeName()) {
			t.Errorf("child %d: %v vs %v", i, c1[i].NodeName(), c2[i].NodeName())
		}
	}
}

func TestLargeDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<list>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<item id=\"x\">value</item>")
	}
	sb.WriteString("</list>")
	doc, err := ParseString(sb.String(), Options{PoolText: true})
	if err != nil {
		t.Fatal(err)
	}
	// list + 5000*(item + @id + text) + document
	if doc.NumNodes() != 2+3*5000 {
		t.Errorf("NumNodes = %d", doc.NumNodes())
	}
}
