// Package xmlscan is the tokenizer under the store build and the streaming
// evaluator: a streaming XML 1.0 + Namespaces scanner over one refilled byte
// buffer. Its token is a reused struct whose byte slices point into that
// buffer, names are interned through a small cache, and every
// well-formedness check happens here, so a document is accepted or rejected
// the same way whatever a query builds from it.
//
// Token boundaries follow the pull contract the engine counts by: a
// self-closing tag is a start plus an end, a run of character data between
// two pieces of markup is one token, and a CDATA section is a token of its
// own. The scanner calls Read only when the current token is not complete in
// the buffer, so a document can be consumed one token at a time as its bytes
// arrive.
//
// The checks: names (the XML 1.0 Appendix B classes, then the Namespaces
// QName and NCName productions), tag balance, the Char range and UTF-8 in
// character data, CDATA and attribute values, "]]>" in text and "<" in
// attribute values, the five predefined entities and character references,
// declared prefixes and attributes unique by expanded name, and an XML
// declaration that names version 1.0 and UTF-8 if anything. A DOCTYPE (any
// "<!" markup) is accepted and dropped; it defines no entity. Comment and
// processing-instruction bodies are taken as written.
//
// After a start tag, Skip hands the element's content back as skipped
// tokens: still tokenized and checked in full, but with no names interned,
// no character data decoded and no attribute delivered.
package xmlscan

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Kind is the kind of a token.
type Kind uint8

const (
	StartElement Kind = iota + 1
	EndElement
	Text // character data, or one CDATA section
	Comment
	ProcInst
	Directive // "<!DOCTYPE …>" or any other "<!" markup
)

// xmlNamespace is the URI the xml prefix is always bound to.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// Name is a resolved element or attribute name. Its strings are interned:
// a name the scanner has seen before costs no allocation.
type Name struct {
	Space  string // namespace URI; empty for no namespace
	Prefix string // the prefix the document wrote; empty for none
	Local  string
}

// Attr is one attribute of a start tag. A namespace declaration (NS set) has
// the prefix it declares in Name.Local, empty for the default namespace, and
// the URI it binds in Name.Space.
type Attr struct {
	Name  Name
	Value []byte // with references replaced and white space normalized
	NS    bool
}

// Token is the scanner's current token, valid until the next call to Next.
// Only the fields its Kind uses are set; the others keep what an earlier
// token left there.
type Token struct {
	Kind Kind
	// Name is the element name of a start or end tag, and the target of a
	// processing instruction (in Local).
	Name Name
	// Attr lists a start tag's attributes, namespace declarations included,
	// in document order.
	Attr []Attr
	// NumAttr counts the start tag's attributes that are not namespace
	// declarations.
	NumAttr int
	// Data is decoded character data, a comment or a processing
	// instruction's body, or a directive's body with its comments replaced
	// by a space.
	Data []byte
	// CDATA marks a text token that is one CDATA section.
	CDATA bool
	// Whitespace reports that a text token holds only XML white space.
	Whitespace bool
	// Skipped marks a token inside an element whose content Skip handed
	// back: of the fields above, only Kind, NumAttr, Whitespace and a
	// processing instruction's target are set.
	Skipped bool
}

// The typed reasons the scanner rejects documents for which a tokenizer
// without the Namespaces checks accepts.
var (
	ErrUndeclaredPrefix = errors.New("undeclared namespace prefix")
	ErrNotNCName        = errors.New("name is not a namespace-well-formed QName")
	ErrDuplicateAttr    = errors.New("duplicate attribute")
)

// SyntaxError is a well-formedness error and the line it was found on.
type SyntaxError struct {
	Line int
	Msg  string
	Err  error // one of the typed reasons, or nil
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("XML syntax error on line %d: %s", e.Line, e.Msg)
}

func (e *SyntaxError) Unwrap() error { return e.Err }

// Sizes: the first buffer (it doubles for a token that does not fit), and
// the number of distinct names and URIs the intern cache keeps.
const (
	bufSize    = 4096
	maxInterns = 4096
)

// Scanner reads one XML document.
type Scanner struct {
	r    io.Reader
	rerr error // what the reader returned last, once buffered input is used up

	buf      []byte
	pos, end int // unconsumed input is buf[pos:end]
	// scanned is how far past pos the current token's terminator has been
	// looked for already, so a token spread over many reads is searched once.
	scanned int
	lines   int // newlines in the input before buf[0]
	err     error

	tok   Token
	attrs []Attr
	spans []attrSpan
	out   []byte // decoded character data and attribute values

	stack   []openElem
	raw     []byte // qnames of the open elements as written, back to back
	ns      []binding
	closing bool // the last start tag was self-closing: its end is next
	skipAt  int  // >0: the depth whose content is handed back skipped

	interned map[string]string
	recent   [256]string // the last name interned per hash of its ends
}

type openElem struct {
	rawStart int // qname as written: raw[rawStart:] up to the next element's
	nsBase   int // len(ns) before the element's declarations
	name     Name
}

type binding struct{ prefix, uri string }

// New returns a scanner reading from r.
func New(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, bufSize), interned: make(map[string]string)}
}

// Next returns the next token, or io.EOF after the end of a well-formed
// sequence of tokens. Errors are sticky. A read error is returned as it is;
// everything the scanner rejects is a *SyntaxError.
func (s *Scanner) Next() (*Token, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closing {
		s.closing = false
		s.endToken()
		return &s.tok, nil
	}
	for {
		done, err := s.lex()
		if err != nil {
			s.err = err
			return nil, err
		}
		if done {
			return &s.tok, nil
		}
		switch {
		case s.rerr == nil:
			s.fill()
			continue
		case s.rerr != io.EOF:
			s.err = s.rerr
		case s.pos < s.end || len(s.stack) > 0:
			s.err = s.syntaxError(s.end, nil, "unexpected EOF")
		default:
			s.err = io.EOF
		}
		return nil, s.err
	}
}

// Skip makes the content of the element whose start tag was just returned
// come back as skipped tokens, up to its end tag, which is returned in full.
func (s *Scanner) Skip() {
	if s.tok.Kind == StartElement && !s.tok.Skipped && !s.closing {
		s.skipAt = len(s.stack)
	}
}

// fill makes room in the buffer and reads once.
func (s *Scanner) fill() {
	if s.pos > 0 {
		s.lines += bytes.Count(s.buf[:s.pos], newline)
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for range 100 {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.rerr = err
			return
		}
		if n > 0 {
			return
		}
	}
	s.rerr = io.ErrNoProgress
}

var newline = []byte{'\n'}

// consume ends the current token at n bytes past pos.
func (s *Scanner) consume(n int) {
	s.pos += n
	s.scanned = 0
}

// atEOF reports that no more input will arrive.
func (s *Scanner) atEOF() bool { return s.rerr == io.EOF }

// syntaxError reports msg at buffer offset off.
func (s *Scanner) syntaxError(off int, reason error, format string, args ...any) error {
	if off > s.end {
		off = s.end
	}
	return &SyntaxError{
		Line: s.lines + bytes.Count(s.buf[:off], newline) + 1,
		Msg:  fmt.Sprintf(format, args...),
		Err:  reason,
	}
}

// intern returns b as a string, allocating only for bytes the cache has not
// seen. A direct-mapped slot per hash of the length and the end bytes
// answers a name repeated nearby without hashing it in full.
func (s *Scanner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := (uint(len(b))*31 + uint(b[0])*7 + uint(b[len(b)-1])) & uint(len(s.recent)-1)
	if v := s.recent[h]; v == string(b) {
		return v
	}
	v, ok := s.interned[string(b)]
	if !ok {
		v = string(b)
		if len(s.interned) < maxInterns {
			s.interned[v] = v
		}
	}
	s.recent[h] = v
	return v
}

// lookup returns the URI prefix is bound to in scope.
func (s *Scanner) lookup(prefix []byte) (string, bool) {
	for i := len(s.ns) - 1; i >= 0; i-- {
		if s.ns[i].prefix == string(prefix) {
			return s.ns[i].uri, true
		}
	}
	return "", false
}

// skipping reports whether tokens at the current position come back
// skipped.
func (s *Scanner) skipping() bool { return s.skipAt > 0 }

// endToken makes the current token the end of the innermost open element
// and closes it.
func (s *Scanner) endToken() {
	n := len(s.stack) - 1
	e := &s.stack[n]
	s.tok.Kind, s.tok.Skipped = EndElement, s.skipAt > 0 && n+1 > s.skipAt
	if s.skipAt == n+1 {
		s.skipAt = 0
	}
	if !s.tok.Skipped {
		s.tok.Name = e.name
	}
	s.ns = s.ns[:e.nsBase]
	s.raw = s.raw[:e.rawStart]
	s.stack = s.stack[:n]
}
