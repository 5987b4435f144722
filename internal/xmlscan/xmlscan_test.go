package xmlscan

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// render scans doc to the end and renders every token on a line.
func render(t *testing.T, doc string, skipAt string) (string, error) {
	t.Helper()
	s := New(strings.NewReader(doc))
	var sb strings.Builder
	for {
		tok, err := s.Next()
		if err == io.EOF {
			return sb.String(), nil
		}
		if err != nil {
			return sb.String(), err
		}
		if tok.Skipped {
			switch tok.Kind {
			case StartElement:
				fmt.Fprintf(&sb, "skipped start attrs=%d\n", tok.NumAttr)
			case Text:
				fmt.Fprintf(&sb, "skipped text blank=%v\n", tok.Whitespace)
			default:
				fmt.Fprintf(&sb, "skipped %d\n", tok.Kind)
			}
			continue
		}
		switch tok.Kind {
		case StartElement:
			fmt.Fprintf(&sb, "start {%s}%s:%s", tok.Name.Space, tok.Name.Prefix, tok.Name.Local)
			for _, a := range tok.Attr {
				fmt.Fprintf(&sb, " {%s}%s:%s=%q ns=%v", a.Name.Space, a.Name.Prefix, a.Name.Local, a.Value, a.NS)
			}
			sb.WriteString("\n")
			if tok.Name.Local == skipAt {
				s.Skip()
			}
		case EndElement:
			fmt.Fprintf(&sb, "end {%s}%s:%s\n", tok.Name.Space, tok.Name.Prefix, tok.Name.Local)
		case Text:
			fmt.Fprintf(&sb, "text %q cdata=%v blank=%v\n", tok.Data, tok.CDATA, tok.Whitespace)
		case Comment:
			fmt.Fprintf(&sb, "comment %q\n", tok.Data)
		case ProcInst:
			fmt.Fprintf(&sb, "pi %s %q\n", tok.Name.Local, tok.Data)
		case Directive:
			fmt.Fprintf(&sb, "directive %q\n", tok.Data)
		}
	}
}

func TestTokens(t *testing.T) {
	doc := "<?xml version='1.0' encoding=\"utf-8\"?><!DOCTYPE r [<!-- c --><!ELEMENT r ANY>]>\n" +
		`<r xmlns="urn:d" xmlns:p="urn:p" a="1&amp;2" p:b='x&#9;y' xml:lang="en">` +
		"<p:c/> &lt;t&#x41;\r\n<![CDATA[<raw>&amp;]]><!--note--><?go run?></r>"
	want := `pi xml "version='1.0' encoding=\"utf-8\""
directive "DOCTYPE r [ <!ELEMENT r ANY>]"
text "\n" cdata=false blank=true
start {urn:d}:r {urn:d}:="urn:d" ns=true {urn:p}:p="urn:p" ns=true {}:a="1&2" ns=false {urn:p}p:b="x\ty" ns=false {http://www.w3.org/XML/1998/namespace}xml:lang="en" ns=false
start {urn:p}p:c
end {urn:p}p:c
text " <tA\n" cdata=false blank=false
text "<raw>&amp;" cdata=true blank=false
comment "note"
pi go "run"
end {urn:d}:r
`
	got, err := render(t, doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("tokens\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSkip: the content of a skipped element comes back as skipped tokens,
// still checked, and its end tag comes back whole.
func TestSkip(t *testing.T) {
	got, err := render(t, `<r><s a="1" xmlns:q="u"><q:t b="2">x</q:t> <u/></s><v/></r>`, "s")
	if err != nil {
		t.Fatal(err)
	}
	want := `start {}:r
start {}:s {}:a="1" ns=false {u}:q="u" ns=true
skipped start attrs=1
skipped text blank=false
skipped 2
skipped text blank=true
skipped start attrs=0
skipped 2
end {}:s
start {}:v
end {}:v
end {}:r
`
	if got != want {
		t.Errorf("tokens\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, doc := range []string{
		`<r><s><p:t/></s></r>`,
		`<r><s><t b="1" b="2"/></s></r>`,
		"<r><s>\x01</s></r>",
		`<r><s><t></s></r>`,
		`<r><s>&bogus;</s></r>`,
	} {
		if _, err := render(t, doc, "s"); err == nil {
			t.Errorf("%q: a fault inside a skipped element went unreported", doc)
		}
	}
}

func TestTypedRejections(t *testing.T) {
	for _, c := range []struct {
		doc    string
		reason error
	}{
		{`<a><p:b/></a>`, ErrUndeclaredPrefix},
		{`<a p:x="1"/>`, ErrUndeclaredPrefix},
		{`<a xmlns:p=""><p:b/></a>`, ErrUndeclaredPrefix},
		{`<xmlns:a/>`, ErrUndeclaredPrefix},
		{`<p:0 xmlns:p="u"/>`, ErrNotNCName},
		{`<a xmlns:0="u"/>`, ErrNotNCName},
		{`<:a/>`, ErrNotNCName},
		{`<a:/>`, ErrNotNCName},
		{`<a:b:c/>`, ErrNotNCName},
		{`<a x="1" x="2"/>`, ErrDuplicateAttr},
		{`<a xmlns:p="u" xmlns:q="u" p:x="1" q:x="2"/>`, ErrDuplicateAttr},
		{`<a xmlns:p="u" xmlns:p="v"/>`, ErrDuplicateAttr},
	} {
		_, err := render(t, c.doc, "")
		if !errors.Is(err, c.reason) {
			t.Errorf("%q: err = %v, want %v", c.doc, err, c.reason)
		}
	}
}

func TestErrorLine(t *testing.T) {
	_, err := render(t, "<a>\n\n<b></a>", "")
	var se *SyntaxError
	if !errors.As(err, &se) || se.Line != 3 {
		t.Fatalf("err = %v, want a syntax error on line 3", err)
	}
}

// gatedReader hands out one chunk per Read and fails the test when Read is
// called while a complete token is still buffered.
type gatedReader struct {
	t      *testing.T
	chunks []string
	reads  int
	allow  *int // Reads allowed so far
}

func (g *gatedReader) Read(p []byte) (int, error) {
	g.reads++
	if g.reads > *g.allow {
		g.t.Fatalf("read %d before the buffered tokens were used up", g.reads)
	}
	if len(g.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.chunks[0])
	g.chunks = g.chunks[1:]
	return n, nil
}

// TestReadsOnlyWhenIncomplete: every token whose bytes are buffered comes
// back without a Read, and a token split over reads is put together.
func TestReadsOnlyWhenIncomplete(t *testing.T) {
	allow := 1
	g := &gatedReader{t: t, chunks: []string{`<a><b x="1"/>te`, `xt</a`, `>`}, allow: &allow}
	s := New(g)
	want := []Kind{StartElement, StartElement, EndElement}
	for _, k := range want {
		tok, err := s.Next()
		if err != nil || tok.Kind != k {
			t.Fatalf("got %v, %v; want kind %d", tok, err, k)
		}
	}
	allow = 2 // the text needs its "<"
	if tok, err := s.Next(); err != nil || tok.Kind != Text || string(tok.Data) != "text" {
		t.Fatalf("got %v, %v; want the text", tok, err)
	}
	allow = 4 // the end tag needs its ">", then the end of input
	if tok, err := s.Next(); err != nil || tok.Kind != EndElement || tok.Name.Local != "a" {
		t.Fatalf("got %v, %v; want </a>", tok, err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}
