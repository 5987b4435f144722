package tokens

import (
	"fmt"
	"io"
)

// StreamWriter is the push-mode twin of SerializeStream: tokens are written
// one at a time and serialized to XML text immediately, with no tree and no
// node identifiers in between.
type StreamWriter struct {
	w          io.Writer
	openTag    bool
	stack      []string
	prevAtomic bool
	err        error
}

// NewStreamWriter creates a StreamWriter.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// Reset re-arms the writer for a new token stream into w, keeping the
// element stack's storage: callers that frame many small results reuse one
// writer instead of creating one per result.
func (s *StreamWriter) Reset(w io.Writer) {
	*s = StreamWriter{w: w, stack: s.stack[:0]}
}

func (s *StreamWriter) write(t string) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, t)
	}
}

func (s *StreamWriter) closeOpenTag() {
	if s.openTag {
		s.openTag = false
		s.write(">")
	}
}

// WriteToken serializes one token.
func (s *StreamWriter) WriteToken(t Token) error {
	if s.err != nil {
		return s.err
	}
	if t.Kind != KindAtomic {
		s.prevAtomic = false
	}
	switch t.Kind {
	case KindStartDocument, KindEndDocument:
	case KindStartElement:
		s.closeOpenTag()
		tag := lexicalName(t.Name)
		s.write("<" + tag)
		if t.Name.Space != "" && t.Name.Prefix == "" {
			s.write(` xmlns="` + escapeAttr(t.Name.Space) + `"`)
		}
		s.stack = append(s.stack, tag)
		s.openTag = true
	case KindEndElement:
		if len(s.stack) == 0 {
			s.err = fmt.Errorf("tokens: unbalanced end element")
			return s.err
		}
		tag := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.openTag {
			s.openTag = false
			s.write("/>")
		} else {
			s.write("</" + tag + ">")
		}
	case KindAttribute:
		if !s.openTag {
			s.err = fmt.Errorf("tokens: attribute %s after element content", t.Name)
			return s.err
		}
		s.write(" " + lexicalName(t.Name) + `="` + escapeAttr(t.Value) + `"`)
	case KindNamespace:
		if !s.openTag {
			s.err = fmt.Errorf("tokens: namespace token after element content")
			return s.err
		}
		name := "xmlns"
		if t.Name.Local != "" {
			name += ":" + t.Name.Local
		}
		s.write(" " + name + `="` + escapeAttr(t.Value) + `"`)
	case KindText:
		s.closeOpenTag()
		s.write(escapeText(t.Value))
	case KindComment:
		s.closeOpenTag()
		s.write("<!--" + t.Value + "-->")
	case KindPI:
		s.closeOpenTag()
		s.write("<?" + t.Name.Local + " " + t.Value + "?>")
	case KindAtomic:
		s.closeOpenTag()
		if s.prevAtomic {
			s.write(" ")
		}
		s.write(escapeText(t.Atom.Lexical()))
		s.prevAtomic = true
	}
	return s.err
}

// Close verifies balance and returns any pending error.
func (s *StreamWriter) Close() error {
	if s.err != nil {
		return s.err
	}
	if len(s.stack) != 0 {
		return fmt.Errorf("tokens: %d unclosed element(s)", len(s.stack))
	}
	return nil
}
