package xmlparse

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"

	"xqgo/internal/serializer"
)

// boundaryDoc packs the constructs most sensitive to read-boundary handling
// into ~230 bytes: multi-byte runes in names, attributes and text, entity
// and character references, CDATA with markup-looking content, a comment, a
// processing instruction, and mixed content with ignorable whitespace.
const boundaryDoc = `<?xml version="1.0"?><α t="a&amp;b — ✓">héllo <b>日本語</b>&lt;tail&gt;
  <c/>
<!--ç–mt--><?pi déjà?><![CDATA[raw <tag> &stuff
line2]]>&#x1F600; fin</α>`

// chunkedReader hands out the input in fixed pieces, one Read per piece —
// the adversarial io.Reader for incremental parsing.
type chunkedReader struct {
	chunks [][]byte
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

// tokenSignature renders a tapped token stream into a comparable string.
// Adjacent character data is coalesced, so the signature is independent of
// how the decoder slices text runs. With foldAttrSpace every tab, line feed
// and carriage return in an attribute value reads as a space, which is what
// attribute-value normalization makes of a literal one.
type tokenSignature struct {
	sb            strings.Builder
	text          strings.Builder
	foldAttrSpace bool
}

func (s *tokenSignature) add(tok xml.Token) error {
	if cd, ok := tok.(xml.CharData); ok {
		s.text.Write(cd)
		return nil
	}
	if s.text.Len() > 0 {
		fmt.Fprintf(&s.sb, "text(%q)\n", s.text.String())
		s.text.Reset()
	}
	switch t := tok.(type) {
	case xml.StartElement:
		fmt.Fprintf(&s.sb, "start(%s:%s", t.Name.Space, t.Name.Local)
		for _, a := range t.Attr {
			v := a.Value
			if s.foldAttrSpace {
				v = strings.Map(foldSpace, v)
			}
			fmt.Fprintf(&s.sb, " %s:%s=%q", a.Name.Space, a.Name.Local, v)
		}
		s.sb.WriteString(")\n")
	case xml.EndElement:
		fmt.Fprintf(&s.sb, "end(%s:%s)\n", t.Name.Space, t.Name.Local)
	case xml.Comment:
		fmt.Fprintf(&s.sb, "comment(%q)\n", string(t))
	case xml.ProcInst:
		fmt.Fprintf(&s.sb, "pi(%s %q)\n", t.Target, string(t.Inst))
	case xml.Directive:
		fmt.Fprintf(&s.sb, "directive(%q)\n", string(t))
	}
	return nil
}

func foldSpace(r rune) rune {
	if r == '\t' || r == '\n' || r == '\r' {
		return ' '
	}
	return r
}

func (s *tokenSignature) String() string {
	if s.text.Len() > 0 {
		fmt.Fprintf(&s.sb, "text(%q)\n", s.text.String())
		s.text.Reset()
	}
	return s.sb.String()
}

// parseChunked drives a full incremental parse over the given chunks and
// returns the serialized document, node count and tapped token signature.
func parseChunked(t *testing.T, chunks [][]byte, strip bool) (string, int, string) {
	t.Helper()
	sig := &tokenSignature{}
	p := ParseIncremental(&chunkedReader{chunks: chunks}, Options{
		URI:             "boundary.xml",
		StripWhitespace: strip,
		Tap:             sig.add,
	})
	for {
		done, err := p.Advance()
		if err != nil {
			t.Fatalf("advance: %v", err)
		}
		if done {
			break
		}
	}
	out, err := serializer.NodeToString(p.Document().RootNode())
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return out, p.Document().NumNodes(), sig.String()
}

// TestChunkBoundaryParity splits boundaryDoc at every byte offset — through
// multi-byte runes, entity references and CDATA — and checks each split
// parses to the same document and the same tapped token stream as the
// one-shot parse, in both whitespace modes.
func TestChunkBoundaryParity(t *testing.T) {
	src := []byte(boundaryDoc)
	for _, strip := range []bool{false, true} {
		eager, err := Parse(strings.NewReader(boundaryDoc), Options{URI: "boundary.xml", StripWhitespace: strip})
		if err != nil {
			t.Fatalf("eager parse: %v", err)
		}
		want, err := serializer.NodeToString(eager.RootNode())
		if err != nil {
			t.Fatal(err)
		}
		wantNodes := eager.NumNodes()
		_, _, wantSig := parseChunked(t, [][]byte{src}, strip)

		for off := 1; off < len(src); off++ {
			got, nodes, sig := parseChunked(t,
				[][]byte{append([]byte(nil), src[:off]...), append([]byte(nil), src[off:]...)}, strip)
			if got != want {
				t.Fatalf("strip=%v split@%d: document mismatch\n got %q\nwant %q", strip, off, got, want)
			}
			if nodes != wantNodes {
				t.Fatalf("strip=%v split@%d: %d nodes, want %d", strip, off, nodes, wantNodes)
			}
			if sig != wantSig {
				t.Fatalf("strip=%v split@%d: token stream mismatch\n got %s\nwant %s", strip, off, sig, wantSig)
			}
		}

		// The pathological single-byte drip must agree too.
		drip := make([][]byte, len(src))
		for i := range src {
			drip[i] = src[i : i+1]
		}
		got, nodes, sig := parseChunked(t, drip, strip)
		if got != want || nodes != wantNodes || sig != wantSig {
			t.Fatalf("strip=%v byte drip: parity mismatch\n got %q\nwant %q", strip, got, want)
		}
	}
}
