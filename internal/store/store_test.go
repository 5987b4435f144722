package store

import (
	"testing"
	"testing/quick"

	"xqgo/internal/xdm"
)

// buildSample constructs:
//
//	<book year="1967">
//	  <title>The politics of experience</title>
//	  <author><first>Ronald</first><last>Laing</last></author>
//	</book>
func buildSample(t *testing.T) *Document {
	t.Helper()
	b := NewBuilder(BuilderOptions{URI: "book.xml"})
	b.StartDocument()
	b.StartElement(xdm.LocalName("book"))
	if err := b.Attr(xdm.LocalName("year"), "1967"); err != nil {
		t.Fatal(err)
	}
	b.StartElement(xdm.LocalName("title"))
	b.Text("The politics of experience")
	b.EndElement()
	b.StartElement(xdm.LocalName("author"))
	b.StartElement(xdm.LocalName("first"))
	b.Text("Ronald")
	b.EndElement()
	b.StartElement(xdm.LocalName("last"))
	b.Text("Laing")
	b.EndElement()
	b.EndElement()
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBuilderShape(t *testing.T) {
	doc := buildSample(t)
	// document, book, @year, title, text, author, first, text, last, text
	if doc.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", doc.NumNodes())
	}
	root := doc.RootNode()
	if root.Kind() != xdm.DocumentNode {
		t.Fatal("node 0 must be the document node")
	}
	kids := root.ChildrenOf()
	if len(kids) != 1 || kids[0].NodeName().Local != "book" {
		t.Fatalf("document children = %v", kids)
	}
	book := kids[0]
	attrs := book.AttributesOf()
	if len(attrs) != 1 || attrs[0].NodeName().Local != "year" || attrs[0].StringValue() != "1967" {
		t.Fatalf("attributes = %v", attrs)
	}
	if got := book.StringValue(); got != "The politics of experienceRonaldLaing" {
		t.Errorf("book string value = %q", got)
	}
	if tv := book.TypedValue(); tv.T != xdm.TUntyped {
		t.Errorf("untyped data model: typed value is %v", tv.T)
	}
	bc := book.ChildrenOf()
	if len(bc) != 2 || bc[0].NodeName().Local != "title" || bc[1].NodeName().Local != "author" {
		t.Fatalf("book children = %v", bc)
	}
	if bc[0].StringValue() != "The politics of experience" {
		t.Error("title string value")
	}
	if bc[0].Parent() == nil || !bc[0].Parent().SameNode(book) {
		t.Error("parent link")
	}
	if root.Parent() != nil {
		t.Error("document node has no parent")
	}
	if attrs[0].Parent() == nil || !attrs[0].Parent().SameNode(book) {
		t.Error("attribute parent is the element")
	}
	if root.BaseURI() != "book.xml" {
		t.Error("base URI")
	}
}

func TestDocumentOrderAndIdentity(t *testing.T) {
	doc := buildSample(t)
	// ids are pre-order: every child id > parent id; OrderKey monotone.
	var prevDoc uint64
	var prevPre int64 = -1
	walk := func(n xdm.Node) {}
	_ = walk
	for id := int32(0); id < int32(doc.NumNodes()); id++ {
		d, p := doc.Node(id).OrderKey()
		if d < prevDoc || p <= prevPre && id > 0 {
			t.Fatalf("order key not monotone at id %d", id)
		}
		prevDoc, prevPre = d, p
	}
	a := doc.Node(3)
	b := doc.Node(3)
	if !a.SameNode(b) {
		t.Error("same (doc,id) is the same node")
	}
	if a.SameNode(doc.Node(4)) {
		t.Error("distinct ids are distinct nodes")
	}
	other := buildSample(t)
	if doc.Node(1).SameNode(other.Node(1)) {
		t.Error("nodes of different documents are distinct")
	}
	if doc.Seq == other.Seq {
		t.Error("documents get distinct sequence numbers")
	}
}

func TestRegions(t *testing.T) {
	doc := buildSample(t)
	for id := int32(0); id < int32(doc.NumNodes()); id++ {
		r := doc.Region(id)
		p := doc.ParentID(id)
		if p >= 0 {
			pr := doc.Region(p)
			if !pr.Contains(r) {
				t.Errorf("parent region %v must contain child %v (id %d)", pr, r, id)
			}
			if pr.Level+1 != r.Level {
				t.Errorf("level chain broken at %d", id)
			}
		}
	}
	// Root region spans everything.
	if doc.Region(0).End != int64(doc.NumNodes()-1) {
		t.Error("root region end")
	}
}

func TestTextMerging(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	b.StartElement(xdm.LocalName("a"))
	b.Text("one")
	b.Text(" two")
	b.Text("") // empty text produces nothing
	b.Text(" three")
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	root := doc.RootNode()
	kids := root.ChildrenOf()
	if len(kids) != 1 {
		t.Fatalf("adjacent text must merge: %d children", len(kids))
	}
	if kids[0].StringValue() != "one two three" {
		t.Errorf("merged text = %q", kids[0].StringValue())
	}
}

func TestFragmentRoots(t *testing.T) {
	// Element fragment: no document node.
	b := NewBuilder(BuilderOptions{})
	b.StartElement(xdm.LocalName("frag"))
	b.Text("x")
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if doc.HasRoot {
		t.Error("fragment must not claim a document node")
	}
	if doc.RootNode().Kind() != xdm.ElementNode {
		t.Error("fragment root is the element")
	}
	if doc.RootNode().Parent() != nil {
		t.Error("constructed element has no parent")
	}

	// Standalone attribute fragment.
	b2 := NewBuilder(BuilderOptions{})
	if err := b2.Attr(xdm.LocalName("a"), "v"); err != nil {
		t.Fatal(err)
	}
	doc2, err := b2.Done()
	if err != nil {
		t.Fatal(err)
	}
	if doc2.RootNode().Kind() != xdm.AttributeNode || doc2.RootNode().StringValue() != "v" {
		t.Error("attribute fragment")
	}

	// Text fragment.
	b3 := NewBuilder(BuilderOptions{})
	b3.Text("just text")
	doc3, err := b3.Done()
	if err != nil {
		t.Fatal(err)
	}
	if doc3.RootNode().Kind() != xdm.TextNode {
		t.Error("text fragment")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	b.StartElement(xdm.LocalName("e"))
	b.Text("content")
	if err := b.Attr(xdm.LocalName("late"), "v"); err == nil {
		t.Error("attribute after content must fail")
	}
	b.EndElement()
	if _, err := b.Done(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Done(); err == nil {
		t.Error("double Done must fail")
	}

	b2 := NewBuilder(BuilderOptions{})
	b2.StartElement(xdm.LocalName("open"))
	if _, err := b2.Done(); err == nil {
		t.Error("unclosed element must fail")
	}

	b3 := NewBuilder(BuilderOptions{})
	b3.StartElement(xdm.LocalName("e"))
	if err := b3.Attr(xdm.LocalName("dup"), "1"); err != nil {
		t.Fatal(err)
	}
	if err := b3.Attr(xdm.LocalName("dup"), "2"); err == nil {
		t.Error("duplicate attribute must fail")
	}
}

func TestCopyNode(t *testing.T) {
	src := buildSample(t)
	book := src.RootNode().ChildrenOf()[0]

	b := NewBuilder(BuilderOptions{})
	b.StartElement(xdm.LocalName("wrapper"))
	if err := b.CopyNode(book); err != nil {
		t.Fatal(err)
	}
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	w := doc.RootNode()
	copied := w.ChildrenOf()[0]
	if copied.NodeName().Local != "book" {
		t.Fatal("copied element name")
	}
	if copied.SameNode(book) {
		t.Error("copy must have a fresh identity")
	}
	if copied.StringValue() != book.StringValue() {
		t.Error("copy preserves content")
	}
	if len(copied.AttributesOf()) != 1 {
		t.Error("copy preserves attributes")
	}
	// Copying a document node splices in its children.
	b2 := NewBuilder(BuilderOptions{})
	b2.StartElement(xdm.LocalName("w"))
	if err := b2.CopyNode(src.RootNode()); err != nil {
		t.Fatal(err)
	}
	b2.EndElement()
	doc2, _ := b2.Done()
	if doc2.RootNode().ChildrenOf()[0].NodeName().Local != "book" {
		t.Error("document copy splices children")
	}
}

func TestNamePool(t *testing.T) {
	p := NewNamePool()
	i1 := p.Intern(xdm.Name("u", "a"))
	i2 := p.Intern(xdm.Name("u", "a"))
	i3 := p.Intern(xdm.Name("u", "b"))
	if i1 != i2 || i1 == i3 {
		t.Error("interning")
	}
	if p.Len() != 2 {
		t.Error("pool size")
	}
	if p.Lookup(xdm.Name("u", "a")) != i1 || p.Lookup(xdm.Name("v", "a")) != -1 {
		t.Error("lookup")
	}
	if !p.Name(i3).Equal(xdm.Name("u", "b")) {
		t.Error("name by index")
	}
}

func TestTextPool(t *testing.T) {
	var nilPool *TextPool
	if nilPool.Intern("x") != "x" || nilPool.Len() != 0 {
		t.Error("nil pool passes through")
	}
	p := NewTextPool()
	a := p.Intern("hello")
	b := p.Intern("hello")
	if a != b || p.Len() != 1 {
		t.Error("text interning")
	}
	// Builder with pooling shares storage for equal values.
	bld := NewBuilder(BuilderOptions{PoolText: true})
	bld.StartElement(xdm.LocalName("r"))
	for i := 0; i < 5; i++ {
		bld.StartElement(xdm.LocalName("x"))
		bld.Text("same")
		bld.EndElement()
	}
	bld.EndElement()
	doc, _ := bld.Done()
	if doc.NumNodes() != 11 {
		t.Fatalf("nodes = %d", doc.NumNodes())
	}
}

func TestSharedNamePool(t *testing.T) {
	shared := NewNamePool()
	mk := func() *Document {
		b := NewBuilder(BuilderOptions{Names: shared})
		b.StartElement(xdm.LocalName("shared"))
		b.EndElement()
		d, _ := b.Done()
		return d
	}
	d1, d2 := mk(), mk()
	if d1.Names != d2.Names {
		t.Error("documents must share the pool")
	}
	if shared.Len() != 1 {
		t.Errorf("shared pool has %d names, want 1", shared.Len())
	}
}

// Property: for random small trees, the region of every node contains
// exactly its subtree ids (endID invariant).
func TestEndIDInvariantQuick(t *testing.T) {
	f := func(shape []uint8) bool {
		if len(shape) > 40 {
			shape = shape[:40]
		}
		b := NewBuilder(BuilderOptions{})
		b.StartDocument()
		b.StartElement(xdm.LocalName("root"))
		depth := 1
		for _, op := range shape {
			switch op % 3 {
			case 0:
				b.StartElement(xdm.LocalName("n"))
				depth++
			case 1:
				if depth > 1 {
					b.EndElement()
					depth--
				}
			case 2:
				b.Text("t")
			}
		}
		for depth > 0 {
			b.EndElement()
			depth--
		}
		doc, err := b.Done()
		if err != nil {
			return false
		}
		for id := int32(0); id < int32(doc.NumNodes()); id++ {
			end := doc.EndID(id)
			if end < id {
				return false
			}
			// Every node in (id, end] must have an ancestor chain reaching id.
			for c := id + 1; c <= end; c++ {
				p := c
				for p > id && p >= 0 {
					p = doc.ParentID(p)
				}
				if p != id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// buildLine builds <line n="…"><id>…</id>tail</line> under a document node.
func buildLine(t *testing.T, b *Builder, n, id string) *Document {
	t.Helper()
	b.StartDocument()
	b.StartElement(xdm.LocalName("line"))
	if err := b.Attr(xdm.LocalName("n"), n); err != nil {
		t.Fatal(err)
	}
	b.StartElement(xdm.LocalName("id"))
	b.Text(id)
	b.EndElement()
	b.Text("ta")
	b.Text("il")
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBuilderReset pins the window-arena contract: the next document reuses
// the previous one's storage but is a different document — new sequence
// number, distinct node identity, later in document order — and the previous
// document is dead, loudly, rather than aliasing the new one's data.
func TestBuilderReset(t *testing.T) {
	b := NewBuilder(BuilderOptions{URI: "feed"})
	d1 := buildLine(t, b, "1", "SKU-1")
	n1 := d1.Node(1)
	if got := n1.StringValue(); got != "SKU-1tail" {
		t.Fatalf("window 1 = %q", got)
	}

	b.Reset()
	d2 := buildLine(t, b, "2", "SKU-2")
	n2 := d2.Node(1)
	if got := n2.StringValue(); got != "SKU-2tail" {
		t.Fatalf("window 2 = %q", got)
	}
	if got := n2.AttributesOf()[0].StringValue(); got != "2" {
		t.Fatalf("window 2 attribute = %q", got)
	}
	if d2 == d1 || d2.Seq <= d1.Seq || d2.URI != "feed" || d2.Names != d1.Names {
		t.Fatalf("reset document: same=%v seq %d -> %d uri %q", d2 == d1, d1.Seq, d2.Seq, d2.URI)
	}
	if n1.SameNode(n2) || n2.SameNode(n1) {
		t.Fatal("the same position in two windows compares equal by node identity")
	}
	if xdm.CompareOrder(n1, n2) >= 0 {
		t.Fatal("a later window must follow an earlier one in document order")
	}
	if d2.Stats() == nil || d2.NumNodes() != 6 {
		t.Fatalf("window 2 has %d nodes, want 6", d2.NumNodes())
	}

	// A node that outlives its window must fail, not read the next window.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a node of a reset document was still readable")
			}
		}()
		_ = n1.StringValue()
	}()

	// Steady state: a window costs the new Document and nothing else.
	perWindow := testing.AllocsPerRun(50, func() {
		b.Reset()
		buildLine(t, b, "3", "SKU-3")
	})
	if perWindow > 2 { // the Document, and the merged "tail" string
		t.Fatalf("%.0f allocations per reused window, want at most 2", perWindow)
	}
}

// TestStringValueEquals: comparing a node's string value in place agrees
// with comparing the string StringValue builds, for every node of the
// sample and strings that match it, a prefix or an extension of it, or
// run across its text runs.
func TestStringValueEquals(t *testing.T) {
	doc := buildSample(t)
	cands := []string{"", "1967", "Ronald", "RonaldLaing", "RonaldLaingx", "Ronal", "RonaldLain",
		"The politics of experienceRonaldLaing", "The politics of experience"}
	for id := int32(0); id < int32(doc.NumNodes()); id++ {
		sv := doc.StringValue(id)
		for _, s := range append(cands, sv, sv+"x", sv[:len(sv)/2]) {
			if got, want := doc.StringValueEquals(id, s), sv == s; got != want {
				t.Errorf("node %d (string value %q) equals %q: %v, want %v", id, sv, s, got, want)
			}
		}
	}
}
