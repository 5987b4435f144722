package tokens

import (
	"bytes"
	"testing"
	"testing/quick"

	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

func sampleDoc(t testing.TB) *store.Document {
	t.Helper()
	b := store.NewBuilder(store.BuilderOptions{})
	b.StartDocument()
	b.StartElement(xdm.LocalName("book"))
	b.NSDecl("p", "urn:p")
	if err := b.Attr(xdm.LocalName("year"), "1967"); err != nil {
		t.Fatal(err)
	}
	b.StartElement(xdm.LocalName("title"))
	b.Text("No Kidding")
	b.EndElement()
	b.StartElement(xdm.LocalName("author"))
	b.Text("Whoever")
	b.EndElement()
	b.Comment("c")
	b.PI("pi", "data")
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func kindsOf(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestDocScannerTokenSequence(t *testing.T) {
	doc := sampleDoc(t)
	toks, err := Materialize(NewDocScanner(doc, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{
		KindStartDocument,
		KindStartElement, // book
		KindNamespace,    // xmlns:p, from Document.NS
		KindAttribute,    // year
		KindStartElement, // title
		KindText,
		KindEndElement,
		KindStartElement, // author
		KindText,
		KindEndElement,
		KindComment,
		KindPI,
		KindEndElement, // book
		KindEndDocument,
	}
	got := kindsOf(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[1].Name.Local != "book" || toks[2].Name.Local != "p" || toks[2].Value != "urn:p" ||
		toks[3].Value != "1967" || toks[5].Value != "No Kidding" {
		t.Error("token payloads")
	}
}

func TestDocScannerSubtree(t *testing.T) {
	doc := sampleDoc(t)
	// Find the title element id.
	var titleID int32 = -1
	for id := int32(0); id < int32(doc.NumNodes()); id++ {
		if doc.Kind(id) == xdm.ElementNode && doc.NameOf(id).Local == "title" {
			titleID = id
		}
	}
	toks, err := Materialize(NewDocScanner(doc, titleID))
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindStartElement, KindText, KindEndElement}
	if len(toks) != 3 {
		t.Fatalf("subtree tokens = %v", kindsOf(toks))
	}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Errorf("subtree token %d = %v", i, toks[i].Kind)
		}
	}
}

func TestSkipJumpsSubtree(t *testing.T) {
	doc := sampleDoc(t)
	sc := NewDocScanner(doc, 0)
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	// Read to the title StartElement, then Skip: next token must be the
	// author StartElement (the first token of the sibling).
	for {
		tok, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatal("did not find title")
		}
		if tok.Kind == KindStartElement && tok.Name.Local == "title" {
			break
		}
	}
	if err := sc.Skip(); err != nil {
		t.Fatal(err)
	}
	tok, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if tok.Kind != KindStartElement || tok.Name.Local != "author" {
		t.Errorf("after Skip: %v %v", tok.Kind, tok.Name)
	}
	// The last returned token was StartElement(author), so another Skip
	// jumps the author subtree too, landing on the comment.
	if err := sc.Skip(); err != nil {
		t.Fatal(err)
	}
	tok, _, _ = sc.Next()
	if tok.Kind != KindComment {
		t.Errorf("Skip over author landed on %v, want comment", tok.Kind)
	}
	// Skip after a non-open token (the comment) is a no-op.
	if err := sc.Skip(); err != nil {
		t.Fatal(err)
	}
	tok, _, _ = sc.Next()
	if tok.Kind != KindPI {
		t.Errorf("no-op Skip: got %v, want pi", tok.Kind)
	}
}

func TestSliceIteratorSkip(t *testing.T) {
	doc := sampleDoc(t)
	toks, _ := Materialize(NewDocScanner(doc, 0))
	it := NewSliceIterator(toks)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		tok, ok, _ := it.Next()
		if !ok {
			t.Fatal("no title")
		}
		if tok.Kind == KindStartElement && tok.Name.Local == "title" {
			break
		}
	}
	if err := it.Skip(); err != nil {
		t.Fatal(err)
	}
	tok, _, _ := it.Next()
	if tok.Kind != KindStartElement || tok.Name.Local != "author" {
		t.Errorf("slice Skip landed on %v %v", tok.Kind, tok.Name)
	}
}

func TestBuildDocumentRoundTrip(t *testing.T) {
	doc := sampleDoc(t)
	toks, _ := Materialize(NewDocScanner(doc, 0))
	doc2, err := BuildDocument(NewSliceIterator(toks), store.BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	toks2, _ := Materialize(NewDocScanner(doc2, 0))
	if len(toks) != len(toks2) {
		t.Fatalf("round trip token count %d != %d", len(toks2), len(toks))
	}
	for i := range toks {
		a, b := toks[i], toks2[i]
		if a.Kind != b.Kind || !a.Name.Equal(b.Name) || a.Value != b.Value {
			t.Errorf("token %d: %+v != %+v", i, a, b)
		}
	}
}

func TestBufferFactory(t *testing.T) {
	doc := sampleDoc(t)
	f := NewBufferFactory(NewDocScanner(doc, 0))
	c1, err := f.Consumer()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := f.Consumer()
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := Materialize(c1)
	t2, _ := Materialize(c2)
	if len(t1) != len(t2) || len(t1) == 0 {
		t.Errorf("consumers disagree: %d vs %d", len(t1), len(t2))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	doc := sampleDoc(t)
	for _, opts := range []EncodeOptions{
		{},
		{PoolNames: true},
		{PoolNames: true, PoolValues: true},
	} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.EncodeStream(NewDocScanner(doc, 0)); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(&buf)
		got, err := Materialize(dec)
		if err != nil {
			t.Fatalf("decode (%+v): %v", opts, err)
		}
		want, _ := Materialize(NewDocScanner(doc, 0))
		if len(got) != len(want) {
			t.Fatalf("binary round trip count %d != %d (opts %+v)", len(got), len(want), opts)
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || !got[i].Name.Equal(want[i].Name) || got[i].Value != want[i].Value {
				t.Errorf("token %d: %+v != %+v", i, got[i], want[i])
			}
		}
	}
}

func TestBinaryPoolingShrinks(t *testing.T) {
	b := store.NewBuilder(store.BuilderOptions{})
	b.StartElement(xdm.LocalName("root"))
	for i := 0; i < 500; i++ {
		b.StartElement(xdm.LocalName("very-repetitive-element-name"))
		b.Text("identical value")
		b.EndElement()
	}
	b.EndElement()
	doc, _ := b.Done()

	size := func(opts EncodeOptions) int {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.EncodeStream(NewDocScanner(doc, 0)); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	raw := size(EncodeOptions{})
	pooled := size(EncodeOptions{PoolNames: true, PoolValues: true})
	if pooled*3 > raw {
		t.Errorf("pooling too weak: %d pooled vs %d raw", pooled, raw)
	}
}

func TestDecoderSkip(t *testing.T) {
	doc := sampleDoc(t)
	var buf bytes.Buffer
	if err := NewEncoder(&buf, EncodeOptions{PoolNames: true}).EncodeStream(NewDocScanner(doc, 0)); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for {
		tok, ok, err := dec.Next()
		if err != nil || !ok {
			t.Fatal("no title found")
		}
		if tok.Kind == KindStartElement && tok.Name.Local == "title" {
			break
		}
	}
	if err := dec.Skip(); err != nil {
		t.Fatal(err)
	}
	tok, _, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.Kind != KindStartElement || tok.Name.Local != "author" {
		t.Errorf("decoder Skip landed on %v %v", tok.Kind, tok.Name)
	}
}

// Property: random small trees survive scanner -> binary -> decoder -> build
// round trips with identical token streams.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(shape []uint8, pool bool) bool {
		if len(shape) > 30 {
			shape = shape[:30]
		}
		b := store.NewBuilder(store.BuilderOptions{})
		b.StartElement(xdm.LocalName("r"))
		depth := 1
		names := []string{"a", "b", "c"}
		for i, op := range shape {
			switch op % 4 {
			case 0:
				b.StartElement(xdm.LocalName(names[int(op/4)%3]))
				depth++
			case 1:
				if depth > 1 {
					b.EndElement()
					depth--
				}
			case 2:
				b.Text("t" + string(rune('a'+i%26)))
			case 3:
				if err := b.Attr(xdm.LocalName("x"+string(rune('a'+i%26))), "v"); err != nil {
					b.Text("dup")
				}
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
		want, err := Materialize(NewDocScanner(doc, 0))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := NewEncoder(&buf, EncodeOptions{PoolNames: pool, PoolValues: pool}).
			EncodeStream(NewDocScanner(doc, 0)); err != nil {
			return false
		}
		got, err := Materialize(NewDecoder(&buf))
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || !got[i].Name.Equal(want[i].Name) || got[i].Value != want[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
