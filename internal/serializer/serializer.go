// Package serializer turns token streams into XML text: the "serialize" edge
// of the data-model life cycle, and the last consumer of a token source.
// Writer is the only code in the module that writes XML markup; everything
// that prints a result (EvalString, Execute, xq, xqd responses, /subscribe
// events) drives it, from a stored subtree scan, an id-free constructor or
// an atomic value alike.
package serializer

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"xqgo/internal/tokens"
	"xqgo/internal/xdm"
)

// Options configure serialization.
type Options struct {
	// OmitXMLDecl suppresses the <?xml ...?> declaration Sequence writes
	// before the first item.
	OmitXMLDecl bool
}

const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// Writer is a push token writer: tokens are written one at a time and
// become XML text immediately, with no tree and no node identifiers in
// between. Sequences follow the XML-output rules: adjacent atomic values are
// joined with single spaces, nodes are written as markup, document nodes are
// transparent.
//
// A start tag is held until the element's KindNamespace tokens have been
// seen, and a stack of in-scope prefix bindings decides every prefix. It
// reaches w only when it is complete, at the token that closes it: an
// error among its attributes (err:XQDY0025) leaves nothing of the element
// written. The namespace rule, the same for every token source:
//
//  1. A KindNamespace token is a declaration recorded on the element. It is
//     written unless the identical binding is already in scope, used or not.
//  2. A name with a namespace URI is written with a prefix in scope for that
//     URI: for an element the default namespace if it is that URI, otherwise
//     (and always for an attribute) the innermost non-empty prefix. The
//     name's own QName.Prefix is not consulted, so two sources of the same
//     tree agree. If nothing is in scope the writer declares a prefix: the
//     name's own Prefix if no binding uses it, else the default namespace
//     for an element, else a fresh nsN. An element in no namespace under a
//     non-empty default namespace gets xmlns="". The xml prefix is never
//     declared and never renamed.
//  3. Attribute values escape & < > " and newline, tab, carriage return as
//     character references; text escapes & < > and carriage return.
//
// An attribute token with no open start tag is err:SENR0001 at top level and
// err:XQTY0024 inside an element; a second attribute with the same expanded
// name on one element is err:XQDY0025. Unbalanced tokens are internal errors:
// only a broken token source produces them.
type Writer struct {
	w    io.Writer
	opts Options
	emit func(tokens.Token) error // WriteToken, bound once
	// buf collects the pieces of one token, or of a whole start tag, and
	// reaches w in a single Write when it is done: output still appears
	// token by token outside start tags, and a w that is no io.StringWriter
	// costs no conversion per piece.
	buf []byte

	stack []element
	ns    []binding   // in-scope declarations, outermost first
	attrs []xdm.QName // attributes of the start tag still open, for the duplicate check

	pending    xdm.QName // name of the held start tag
	held       bool      // "<name" of the innermost element is not written yet
	openTag    bool      // inside a start tag: attributes still allowed
	prevAtomic bool
	tokens     int64
	err        error
}

// element is one open element: its lexical name for the end tag, and where
// its own declarations start in Writer.ns.
type element struct {
	prefix, local string
	ns            int
}

type binding struct{ prefix, uri string }

// New creates a Writer on w.
func New(w io.Writer, opts Options) *Writer {
	s := &Writer{w: w, opts: opts}
	s.emit = s.WriteToken
	return s
}

// Reset re-arms the writer for a new token stream into w, keeping its
// storage: callers that frame many small results reuse one writer instead of
// creating one per result. The token count carries on.
func (s *Writer) Reset(w io.Writer) {
	s.w, s.err = w, nil
	s.buf, s.stack, s.ns = s.buf[:0], s.stack[:0], s.ns[:0]
	s.held, s.openTag, s.prevAtomic = false, false, false
}

// Tokens returns the number of tokens written since New.
func (s *Writer) Tokens() int64 { return s.tokens }

// SequenceToString renders a sequence without an XML declaration.
func SequenceToString(seq xdm.Sequence) (string, error) {
	var b strings.Builder
	if err := New(&b, Options{OmitXMLDecl: true}).Sequence(seq); err != nil {
		return "", err
	}
	return b.String(), nil
}

// NodeToString renders one node without an XML declaration.
func NodeToString(n xdm.Node) (string, error) {
	return SequenceToString(xdm.Sequence{n})
}

// Sequence serializes a whole sequence and closes the writer.
func (s *Writer) Sequence(seq xdm.Sequence) error {
	if !s.opts.OmitXMLDecl {
		s.str(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	}
	for _, it := range seq {
		if err := s.WriteItem(it); err != nil {
			return err
		}
	}
	return s.Close()
}

// WriteItem serializes one item from its token source (tokens.EmitItem).
func (s *Writer) WriteItem(it xdm.Item) error { return tokens.EmitItem(it, s.emit) }

// WriteToken serializes one token.
func (s *Writer) WriteToken(t tokens.Token) error {
	if s.err != nil {
		return s.err
	}
	s.tokens++
	if t.Kind != tokens.KindAtomic {
		s.prevAtomic = false
	}
	switch t.Kind {
	case tokens.KindStartDocument, tokens.KindEndDocument:
	case tokens.KindStartElement:
		s.closeStartTag()
		s.stack = append(s.stack, element{ns: len(s.ns)})
		s.pending, s.held, s.openTag = t.Name, true, true
		s.attrs = s.attrs[:0]
	case tokens.KindEndElement:
		if len(s.stack) == 0 {
			return s.fail(fmt.Errorf("serializer: unbalanced end element"))
		}
		s.startTag()
		e := s.stack[len(s.stack)-1]
		s.stack, s.ns = s.stack[:len(s.stack)-1], s.ns[:e.ns]
		if s.openTag {
			s.openTag = false
			s.str("/>")
		} else {
			s.str("</")
			s.name(e.prefix, e.local)
			s.str(">")
		}
	case tokens.KindNamespace:
		if !s.openTag {
			return s.fail(fmt.Errorf("serializer: namespace token after element content"))
		}
		prefix := t.Name.Local
		if prefix == "xml" || prefix == "xmlns" || s.lookup(prefix) == t.Value {
			break
		}
		s.ns = append(s.ns, binding{prefix, t.Value})
		if !s.held {
			s.decl(prefix, t.Value)
		}
	case tokens.KindAttribute:
		if !s.openTag {
			if len(s.stack) == 0 {
				return s.fail(xdm.Errf("SENR0001", "cannot serialize attribute %s outside an element", t.Name))
			}
			return s.fail(xdm.Errf("XQTY0024", "attribute %s after element content", t.Name))
		}
		for _, a := range s.attrs {
			if a.Equal(t.Name) {
				return s.fail(xdm.Errf("XQDY0025", "duplicate attribute %s", t.Name))
			}
		}
		s.attrs = append(s.attrs, t.Name)
		s.startTag()
		prefix := s.attrPrefix(t.Name) // may write a declaration first
		s.str(" ")
		s.name(prefix, t.Name.Local)
		s.str(`="`)
		s.escaped(attrEscaper, t.Value)
		s.str(`"`)
	case tokens.KindText:
		if t.Value == "" {
			break // an empty text node is no content: <e/> stays empty
		}
		s.closeStartTag()
		s.escaped(textEscaper, t.Value)
	case tokens.KindComment:
		s.closeStartTag()
		s.str("<!--")
		s.str(t.Value)
		s.str("-->")
	case tokens.KindPI:
		s.closeStartTag()
		s.str("<?")
		s.str(t.Name.Local)
		s.str(" ")
		s.str(t.Value)
		s.str("?>")
	case tokens.KindAtomic:
		// Adjacent atomics are one text node; a lone "" is none.
		if lex := t.Atom.Lexical(); s.prevAtomic || lex != "" {
			s.closeStartTag()
			if s.prevAtomic {
				s.str(" ")
			}
			s.escaped(textEscaper, lex)
		}
		s.prevAtomic = true
	}
	if s.openTag {
		return nil // the start tag reaches w whole, at the token that closes it
	}
	return s.flush()
}

// Close verifies balance and returns any pending error.
func (s *Writer) Close() error {
	if s.err == nil && len(s.stack) != 0 {
		s.err = fmt.Errorf("serializer: %d unclosed element(s)", len(s.stack))
	}
	return s.flush()
}

func (s *Writer) flush() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
		s.buf = s.buf[:0]
	}
	return s.err
}

func (s *Writer) fail(err error) error {
	s.err = err
	return err
}

// startTag writes the held "<name" and the declarations the element brought
// or needs, once its namespace tokens are all in.
func (s *Writer) startTag() {
	if !s.held {
		return
	}
	s.held = false
	e := &s.stack[len(s.stack)-1]
	e.local = s.pending.Local
	switch space := s.pending.Space; {
	case space == "":
		if len(s.ns) > 0 && s.lookup("") != "" {
			s.ns = append(s.ns, binding{"", ""})
		}
	case space == xmlNamespace:
		e.prefix = "xml"
	case s.lookup("") == space:
	default:
		p, ok := s.prefixFor(space)
		if !ok {
			p = s.newPrefix(s.pending.Prefix, true)
			s.ns = append(s.ns, binding{p, space})
		}
		e.prefix = p
	}
	s.str("<")
	s.name(e.prefix, e.local)
	for _, b := range s.ns[e.ns:] {
		s.decl(b.prefix, b.uri)
	}
}

func (s *Writer) closeStartTag() {
	if s.openTag {
		s.startTag()
		s.openTag = false
		s.str(">")
	}
}

// attrPrefix returns the prefix to write an attribute name with, declaring
// one on the open start tag when none is in scope.
func (s *Writer) attrPrefix(q xdm.QName) string {
	switch q.Space {
	case "":
		return ""
	case xmlNamespace:
		return "xml"
	}
	p, ok := s.prefixFor(q.Space)
	if !ok {
		p = s.newPrefix(q.Prefix, false)
		s.ns = append(s.ns, binding{p, q.Space})
		s.decl(p, q.Space)
	}
	return p
}

// lookup returns the URI prefix is bound to; unbound and undeclared are both
// "".
func (s *Writer) lookup(prefix string) string {
	for i := len(s.ns) - 1; i >= 0; i-- {
		if s.ns[i].prefix == prefix {
			return s.ns[i].uri
		}
	}
	return ""
}

func bound(ns []binding, prefix string) bool {
	for _, b := range ns {
		if b.prefix == prefix {
			return true
		}
	}
	return false
}

// prefixFor finds the innermost non-empty prefix bound to uri that no inner
// declaration shadows.
func (s *Writer) prefixFor(uri string) (string, bool) {
	for i := len(s.ns) - 1; i >= 0; i-- {
		// lookup: the innermost binding of the prefix must be this one.
		if b := s.ns[i]; b.uri == uri && b.prefix != "" && s.lookup(b.prefix) == uri {
			return b.prefix, true
		}
	}
	return "", false
}

// newPrefix picks the prefix to declare for a name nothing in scope serves.
func (s *Writer) newPrefix(hint string, elem bool) string {
	if hint != "" && hint != "xml" && hint != "xmlns" && !bound(s.ns, hint) {
		return hint
	}
	if own := s.ns[s.stack[len(s.stack)-1].ns:]; elem && !bound(own, "") {
		return ""
	}
	for i := 1; ; i++ {
		if p := "ns" + strconv.Itoa(i); !bound(s.ns, p) {
			return p
		}
	}
}

func (s *Writer) name(prefix, local string) {
	if prefix != "" {
		s.str(prefix)
		s.str(":")
	}
	s.str(local)
}

func (s *Writer) decl(prefix, uri string) {
	s.str(" xmlns")
	if prefix != "" {
		s.str(":")
		s.str(prefix)
	}
	s.str(`="`)
	s.escaped(attrEscaper, uri)
	s.str(`"`)
}

func (s *Writer) str(t string) { s.buf = append(s.buf, t...) }

func (s *Writer) escaped(r *strings.Replacer, t string) { s.buf = append(s.buf, r.Replace(t)...) }

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")

var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
	"\n", "&#10;", "\t", "&#9;", "\r", "&#13;")
