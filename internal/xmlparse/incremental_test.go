package xmlparse

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"xqgo/internal/projection"
	"xqgo/internal/serializer"
	"xqgo/internal/store"
)

// bigBib renders a bibliography large enough that the decoder cannot slurp
// it in one buffered read.
func bigBib(books int) string {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&sb, `<book year="%d"><title>Book %d</title><author><last>L%d</last><first>F%d</first></author><price>%d.50</price></book>`,
			1980+i%25, i, i, i, 20+i%60)
	}
	sb.WriteString("</bib>")
	return sb.String()
}

// meteredReader counts bytes handed to the decoder.
type meteredReader struct {
	r io.Reader
	n atomic.Int64
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n.Add(int64(n))
	return n, err
}

// TestIncrementalIsLazy: creating the incremental parser consumes nothing,
// touching the first child consumes a prefix, and Complete consumes the rest.
func TestIncrementalIsLazy(t *testing.T) {
	src := bigBib(5000)
	mr := &meteredReader{r: strings.NewReader(src)}
	p := ParseIncremental(mr, Options{URI: "bib.xml"})
	doc := p.Document()
	if !doc.Lazy() {
		t.Fatal("document should report Lazy before completion")
	}
	if got := mr.n.Load(); got != 0 {
		t.Fatalf("ParseIncremental consumed %d bytes before any demand", got)
	}
	// Navigate down the first spine only: ChildrenOf would force the whole
	// parse (the last-sibling check needs the parent closed), but first-child
	// hops stop at the frontier.
	bib := doc.FirstChildID(0)
	if doc.ExpandedName(bib).Local != "bib" {
		t.Fatalf("root element = %s", doc.ExpandedName(bib))
	}
	book := doc.FirstChildID(bib)
	if doc.ExpandedName(book).Local != "book" {
		t.Fatalf("first child = %s", doc.ExpandedName(book))
	}
	after := mr.n.Load()
	if after == 0 || after >= int64(len(src)) {
		t.Fatalf("reading the root element consumed %d of %d bytes; want a proper prefix", after, len(src))
	}
	if err := doc.Complete(); err != nil {
		t.Fatal(err)
	}
	if doc.Lazy() {
		t.Fatal("document still lazy after Complete")
	}
	if got := mr.n.Load(); got != int64(len(src)) {
		t.Fatalf("Complete consumed %d of %d bytes", got, len(src))
	}
}

// TestIncrementalAdvance drives the parse one token at a time to the end.
func TestIncrementalAdvance(t *testing.T) {
	p := ParseIncremental(strings.NewReader(bigBib(3)), Options{URI: "bib.xml"})
	steps := 0
	for {
		done, err := p.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("no advance steps")
	}
	if done, err := p.Advance(); !done || err != nil {
		t.Fatalf("Advance after completion = (%v, %v), want (true, nil)", done, err)
	}
	if p.Document().Lazy() {
		t.Fatal("document still lazy after exhausting Advance")
	}
}

// TestIncrementalParity: a lazily navigated document serializes identically
// to an eagerly parsed one, across the tricky constructs (namespaces, mixed
// content, comments/PIs, CDATA, whitespace modes).
func TestIncrementalParity(t *testing.T) {
	docs := []string{
		bigBib(50),
		`<a xmlns="urn:d" xmlns:p="urn:p"><p:b attr="1">x</p:b><c/></a>`,
		`<p>mixed <b>bold</b> tail<!--c--><?pi data?></p>`,
		`<r><![CDATA[<not-a-tag>]]>&amp;</r>`,
		"<w>\n  <x> keep me </x>\n</w>",
	}
	for _, src := range docs {
		for _, strip := range []bool{false, true} {
			opts := Options{URI: "t.xml", StripWhitespace: strip}
			eagerDoc, err := Parse(strings.NewReader(src), opts)
			if err != nil {
				t.Fatalf("eager parse: %v", err)
			}
			lazyDoc := ParseIncremental(strings.NewReader(src), opts).Document()
			want, err := serializer.NodeToString(eagerDoc.RootNode())
			if err != nil {
				t.Fatal(err)
			}
			// Serialization of the lazy document drives the parse itself.
			got, err := serializer.NodeToString(lazyDoc.RootNode())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("strip=%v parity mismatch\n got %q\nwant %q", strip, got, want)
			}
			if eagerDoc.NumNodes() != lazyDoc.NumNodes() {
				t.Errorf("node count: eager %d lazy %d", eagerDoc.NumNodes(), lazyDoc.NumNodes())
			}
		}
	}
}

// TestIncrementalErrorParity: lazy completion reports the same error strings
// as the eager parser, and the error is sticky.
func TestIncrementalErrorParity(t *testing.T) {
	cases := []string{
		`<a></a><b></b>`,         // multiple roots
		`<a><b></a>`,             // mismatched tags
		`<a>`,                    // EOF inside element
		`text only`,              // chardata outside root
		``,                       // no root element
		`<a attr="x" attr="y"/>`, // duplicate attribute
	}
	for _, src := range cases {
		_, eagerErr := Parse(strings.NewReader(src), Options{URI: "t.xml"})
		if eagerErr == nil {
			t.Fatalf("eager parse of %q succeeded", src)
		}
		doc := ParseIncremental(strings.NewReader(src), Options{URI: "t.xml"}).Document()
		lazyErr := doc.Complete()
		if lazyErr == nil {
			t.Fatalf("lazy completion of %q succeeded", src)
		}
		if eagerErr.Error() != lazyErr.Error() {
			t.Errorf("error parity for %q:\n eager %q\n lazy  %q", src, eagerErr, lazyErr)
		}
		if again := doc.Complete(); again == nil || again.Error() != lazyErr.Error() {
			t.Errorf("error not sticky for %q: %v", src, again)
		}
	}
}

// TestIncrementalAbortPanic: navigating past a parse failure panics with
// store.Abort carrying the parse error (the engine converts it at its
// boundary).
func TestIncrementalAbortPanic(t *testing.T) {
	doc := ParseIncremental(strings.NewReader(`<a><b></a>`), Options{URI: "t.xml"}).Document()
	defer func() {
		r := recover()
		ab, ok := r.(store.Abort)
		if !ok {
			t.Fatalf("recovered %T (%v), want store.Abort", r, r)
		}
		if !strings.Contains(ab.Error(), "xmlparse") {
			t.Fatalf("abort error = %q", ab.Error())
		}
	}()
	_, _ = serializer.NodeToString(doc.RootNode())
	t.Fatal("navigation over a broken stream did not panic")
}

// titleOnly is the projection for /bib/book/title with the title subtree
// kept (what ExtractPaths emits for that query).
func titleOnly() *projection.Paths {
	p := projection.New()
	p.Add(projection.Path{Steps: []projection.Step{
		{Local: "bib"}, {Local: "book"}, {Local: "title"},
	}, KeepSubtree: true})
	return p
}

// TestProjectionSkipsSubtrees: under a /bib/book/title projection, authors
// and prices are never materialized but titles survive with full content.
func TestProjectionSkipsSubtrees(t *testing.T) {
	src := bigBib(200)
	var st tallyStats
	opts := Options{URI: "bib.xml", Projection: titleOnly(), Stats: &st}
	doc := ParseIncremental(strings.NewReader(src), opts).Document()
	if err := doc.Complete(); err != nil {
		t.Fatal(err)
	}
	full, err := Parse(strings.NewReader(src), Options{URI: "bib.xml"})
	if err != nil {
		t.Fatal(err)
	}
	if doc.NumNodes() >= full.NumNodes() {
		t.Fatalf("projection built %d nodes, full parse %d", doc.NumNodes(), full.NumNodes())
	}
	if st.skipped.Load() == 0 {
		t.Fatal("no skipped nodes recorded")
	}
	// The document node predates the first increment, so deltas cover all
	// nodes but that one.
	if st.built.Load() != int64(doc.NumNodes())-1 {
		t.Fatalf("stats built %d, store holds %d", st.built.Load(), doc.NumNodes())
	}
	// The kept subtrees are intact, the skipped ones are gone.
	out, err := serializer.NodeToString(doc.RootNode())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<title>Book 0</title>") || !strings.Contains(out, "<title>Book 199</title>") {
		t.Errorf("kept titles missing from %q...", out[:120])
	}
	if strings.Contains(out, "<author>") || strings.Contains(out, "<price>") {
		t.Error("skipped subtrees leaked into the projected document")
	}
}

// tallyStats accumulates parser increments.
type tallyStats struct {
	tokens, built, skipped, bytes atomic.Int64
}

func (s *tallyStats) OnParse(tokens, built, skipped, bytes int64) {
	s.tokens.Add(tokens)
	s.built.Add(built)
	s.skipped.Add(skipped)
	s.bytes.Add(bytes)
}

// TestProjectionKeepAllMatchesFull: a keep-everything projection behaves
// exactly like no projection.
func TestProjectionKeepAllMatchesFull(t *testing.T) {
	src := bigBib(30)
	keep := projection.KeepEverything()
	a := ParseIncremental(strings.NewReader(src), Options{URI: "b.xml", Projection: keep}).Document()
	if err := a.Complete(); err != nil {
		t.Fatal(err)
	}
	b, err := Parse(strings.NewReader(src), Options{URI: "b.xml"})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("keep-all projection built %d nodes, plain parse %d", a.NumNodes(), b.NumNodes())
	}
}

// TestProjectionSkippedStreamStillValidated: well-formedness errors inside a
// skipped subtree still surface (skipping saves building, not tokenizing).
func TestProjectionSkippedStreamStillValidated(t *testing.T) {
	src := `<bib><book><title>t</title><author><broken></author></book></bib>`
	doc := ParseIncremental(strings.NewReader(src), Options{URI: "b.xml", Projection: titleOnly()}).Document()
	if err := doc.Complete(); err == nil {
		t.Fatal("malformed skipped subtree went unreported")
	}
}
