package xmlscan

import (
	"bytes"
	"strings"
)

// lex reads one token at pos. It returns false when the token is not
// complete in the buffer and more input may complete it.
func (s *Scanner) lex() (bool, error) {
	b := s.buf[s.pos:s.end]
	if len(b) == 0 {
		return false, nil
	}
	s.out = s.out[:0]
	if b[0] != '<' {
		return s.lexText(b)
	}
	if len(b) < 2 {
		return false, nil
	}
	switch b[1] {
	case '/':
		return s.lexEnd(b)
	case '?':
		return s.lexPI(b)
	case '!':
		return s.lexBang(b)
	}
	return s.lexStart(b)
}

// find returns the offset of sep in b at or past from, resuming where the
// last search for the current token stopped. At -1 it records how far it
// looked.
func (s *Scanner) find(b []byte, from int, sep string) int {
	if s.scanned > from {
		from = s.scanned
	}
	var i int
	if len(sep) == 1 {
		i = bytes.IndexByte(b[from:], sep[0])
	} else {
		i = bytes.Index(b[from:], []byte(sep))
	}
	if i >= 0 {
		return from + i
	}
	s.scanned = max(from, len(b)-len(sep)+1)
	return -1
}

var cdataEnd = []byte("]]>")

// lexText reads character data up to the next "<" or the end of input.
func (s *Scanner) lexText(b []byte) (bool, error) {
	n := s.find(b, 0, "<")
	if n < 0 {
		if !s.atEOF() {
			return false, nil
		}
		n = len(b)
	}
	raw := b[:n]
	if i := bytes.Index(raw, cdataEnd); i >= 0 {
		return false, s.syntaxError(s.pos+i, nil, "unescaped ]]> not in CDATA section")
	}
	return s.charData(raw, 0, n, &textClass, false)
}

// charData makes raw, at offset at of the n bytes of input the token
// spans, the current text token.
func (s *Scanner) charData(raw []byte, at, n int, class *[256]uint8, cdata bool) (bool, error) {
	keep := !s.skipping()
	if keep && cap(s.out) < len(raw) {
		s.out = make([]byte, 0, len(raw))
	}
	data, blank, off, msg := s.chars(raw, class, keep)
	if msg != "" {
		return false, s.syntaxError(s.pos+at+off, nil, "%s", msg)
	}
	t := &s.tok
	t.Kind, t.Data, t.CDATA, t.Whitespace, t.Skipped = Text, data, cdata, blank, !keep
	s.consume(n)
	return true, nil
}

// lexBang reads a comment, a CDATA section or a directive.
func (s *Scanner) lexBang(b []byte) (bool, error) {
	if len(b) < 3 {
		return false, nil
	}
	switch b[2] {
	case '-':
		if len(b) < 4 {
			return false, nil
		}
		if b[3] != '-' {
			return false, s.syntaxError(s.pos+3, nil, "invalid sequence <!- not part of <!--")
		}
		i := s.find(b, 4, "--")
		if i < 0 || i+2 >= len(b) {
			return false, nil
		}
		if b[i+2] != '>' {
			return false, s.syntaxError(s.pos+i, nil, `invalid sequence "--" not allowed in comments`)
		}
		s.tok.Kind, s.tok.Skipped, s.tok.Data = Comment, s.skipping(), b[4:i]
		s.consume(i + 3)
		return true, nil
	case '[':
		const open = "<![CDATA["
		if !bytes.HasPrefix(b, []byte(open[:min(len(b), len(open))])) {
			return false, s.syntaxError(s.pos, nil, "invalid <![ sequence")
		}
		if len(b) < len(open) {
			return false, nil
		}
		i := s.find(b, len(open), "]]>")
		if i < 0 {
			return false, nil
		}
		return s.charData(b[len(open):i], len(open), i+3, &cdataClass, true)
	}
	return s.lexDirective(b)
}

// lexDirective reads "<!" markup that is neither a comment nor a CDATA
// section, up to the ">" that closes it: quoted strings and comments are
// taken whole, and nested "<…>" pairs are counted. The token's data is the
// body with each comment replaced by a space. The first byte after "<!" is
// taken as it is, whatever it is.
func (s *Scanner) lexDirective(b []byte) (bool, error) {
	out := append(s.out[:0], b[2])
	var quote byte
	depth := 0
	i := 3
	for {
		if i >= len(b) {
			return false, nil
		}
		c := b[i]
		i++
		if quote == 0 && c == '>' && depth == 0 {
			break
		}
	again:
		out = append(out, c)
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			const open = "!--"
			for k := 0; k < len(open); k++ {
				if i >= len(b) {
					return false, nil
				}
				c = b[i]
				i++
				if c != open[k] {
					out = append(out, open[:k]...)
					depth++
					goto again
				}
			}
			out = out[:len(out)-1] // the "<" of the comment
			var c0, c1 byte
			for {
				if i >= len(b) {
					return false, nil
				}
				c = b[i]
				i++
				if c0 == '-' && c1 == '-' && c == '>' {
					break
				}
				c0, c1 = c1, c
			}
			out = append(out, ' ')
		}
	}
	s.out = out
	s.tok.Kind, s.tok.Skipped, s.tok.Data = Directive, s.skipping(), out
	s.consume(i)
	return true, nil
}

// lexPI reads a processing instruction. Its target is a Name; the body is
// what follows the target and any white space, up to "?>". An XML
// declaration must name version 1.0 and UTF-8 if it names either.
func (s *Scanner) lexPI(b []byte) (bool, error) {
	i := s.find(b, 2, "?>")
	if i < 0 {
		return false, nil
	}
	j, _, _ := scanName(b, 2)
	if j == 2 {
		return false, s.syntaxError(s.pos+2, nil, "expected target name after <?")
	}
	if !isName(b[2:j]) {
		return false, s.syntaxError(s.pos+2, nil, "invalid XML name: %s", b[2:j])
	}
	target := b[2:j]
	data := b[skipSpace(b, j):i]
	if string(target) == "xml" {
		content := string(data)
		if v := declParam("version", content); v != "" && v != "1.0" {
			return false, s.syntaxError(s.pos, nil, "unsupported XML version %q; only version 1.0 is supported", v)
		}
		if e := declParam("encoding", content); e != "" && !strings.EqualFold(e, "utf-8") {
			return false, s.syntaxError(s.pos, nil, "unsupported encoding %q; only UTF-8 is read", e)
		}
	}
	s.tok.Kind, s.tok.Skipped, s.tok.Data = ProcInst, s.skipping(), data
	s.tok.Name = Name{Local: s.intern(target)}
	s.consume(i + 2)
	return true, nil
}

// declParam returns the quoted value of param in the body of an XML
// declaration, or "". Like encoding/xml it takes the first "param=" followed
// by a quote, wherever it stands.
func declParam(param, s string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], quote)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// tagEnd returns the offset of the ">" that ends the end tag b starts, or
// of the first "<" after b[0], which the tag cannot hold. It returns -1 when
// b holds neither.
func tagEnd(b []byte) int {
	for i := 1; i < len(b); i++ {
		if b[i] == '<' || b[i] == '>' {
			return i
		}
	}
	return -1
}

// lexEnd reads an end tag, which must close the innermost open element.
func (s *Scanner) lexEnd(b []byte) (bool, error) {
	if len(s.stack) > 0 {
		// The common case: the open element's name, then ">".
		open := s.raw[s.stack[len(s.stack)-1].rawStart:]
		if n := 2 + len(open); n < len(b) && b[n] == '>' && bytes.Equal(b[2:n], open) {
			s.endToken()
			s.consume(n + 1)
			return true, nil
		}
	}
	e := tagEnd(b)
	if e < 0 {
		return false, nil
	}
	t := b[:e+1]
	j, _, _ := scanName(t, 2)
	if j == 2 {
		return false, s.syntaxError(s.pos+2, nil, "expected element name after </")
	}
	name := t[2:j]
	if len(s.stack) == 0 {
		return false, s.syntaxError(s.pos, nil, "unexpected end element </%s>", name)
	}
	if open := s.raw[s.stack[len(s.stack)-1].rawStart:]; !bytes.Equal(open, name) {
		return false, s.syntaxError(s.pos, nil, "element <%s> closed by </%s>", open, name)
	}
	if k := skipSpace(t, j); t[k] != '>' {
		return false, s.syntaxError(s.pos+k, nil, "invalid characters between </%s and >", name)
	}
	s.endToken()
	s.consume(e + 1)
	return true, nil
}

// attrSpan is one attribute of the start tag being read.
type attrSpan struct {
	name  []byte // as written
	colon int    // offset of the colon in name, or -1
	value []byte // decoded; nil when skipping and not a declaration
	uri   string // the namespace of the name, or the URI a declaration binds
	decl  bool   // a namespace declaration
}

// local returns the part of the name after the prefix, or for a
// declaration the prefix it declares.
func (a *attrSpan) local() []byte {
	if a.decl && a.colon < 0 {
		return nil // xmlns
	}
	return a.name[a.colon+1:]
}

// lexStart reads a start tag: its name, its attributes and their values,
// then the namespace declarations among them, which scope the element's own
// name and its attributes. Running out of input anywhere means the tag is
// not complete yet; a "<" inside it is an error whatever follows.
func (s *Scanner) lexStart(b []byte) (bool, error) {
	skip := s.skipping()
	j, colons, colon := scanName(b, 1)
	if j == len(b) {
		return false, nil
	}
	if j == 1 {
		return false, s.syntaxError(s.pos+1, nil, "expected element name after <")
	}
	if err := s.checkQName(b[1:j], colons, colon-1, 1); err != nil {
		return false, err
	}
	ename, ecolon := b[1:j], colon-1
	if colons == 0 {
		ecolon = -1
	}
	if cap(s.out) < len(b) {
		s.out = make([]byte, 0, len(b))
	}
	s.spans = s.spans[:0]
	empty := false
	i := j
	for {
		if i = skipSpace(b, i); i >= len(b) {
			return false, nil
		}
		if b[i] == '/' {
			if i+1 >= len(b) {
				return false, nil
			}
			if b[i+1] != '>' {
				return false, s.syntaxError(s.pos+i, nil, "expected /> in element")
			}
			empty = true
			i += 2
			break
		}
		if b[i] == '>' {
			i++
			break
		}
		n0 := i
		n1, colons, colon := scanName(b, i)
		if n1 == len(b) {
			return false, nil
		}
		if n1 == n0 {
			return false, s.syntaxError(s.pos+i, nil, "expected attribute name in element")
		}
		if err := s.checkQName(b[n0:n1], colons, colon-n0, n0); err != nil {
			return false, err
		}
		if i = skipSpace(b, n1); i >= len(b) {
			return false, nil
		}
		if b[i] != '=' {
			return false, s.syntaxError(s.pos+i, nil, "attribute name without = in element")
		}
		if i = skipSpace(b, i+1); i >= len(b) {
			return false, nil
		}
		q := b[i]
		if q != '"' && q != '\'' {
			return false, s.syntaxError(s.pos+i, nil, "unquoted or missing attribute value in element")
		}
		v0 := i + 1
		k := bytes.IndexByte(b[v0:], q)
		if k < 0 {
			if lt := bytes.IndexByte(b[v0:], '<'); lt >= 0 {
				return false, s.syntaxError(s.pos+v0+lt, nil, "unescaped < inside quoted string")
			}
			return false, nil
		}
		v1 := v0 + k
		a := attrSpan{name: b[n0:n1], colon: colon - n0}
		if colons == 0 {
			a.colon = -1
		}
		a.decl = string(a.name) == "xmlns" || a.colon == 5 && string(a.name[:5]) == "xmlns"
		value, _, off, msg := s.chars(b[v0:v1], &attrClass, !skip || a.decl)
		if msg != "" {
			return false, s.syntaxError(s.pos+v0+off, nil, "%s", msg)
		}
		a.value = value
		s.spans = append(s.spans, a)
		i = v1 + 1
	}
	return true, s.openElement(ename, ecolon, empty, i, skip)
}

// checkQName checks a name of a start tag written at buffer offset pos+at:
// a Name with at most one colon, and an NCName on either side of it.
func (s *Scanner) checkQName(name []byte, colons, colon, at int) error {
	if !isName(name) {
		return s.syntaxError(s.pos+at, nil, "invalid XML name: %s", name)
	}
	if colons == 0 {
		return nil
	}
	if colons > 1 || colon == 0 || !startsNCName(name[colon+1:]) {
		return s.syntaxError(s.pos+at, ErrNotNCName, "%s: %s", ErrNotNCName, name)
	}
	return nil
}

// openElement resolves the start tag just read, pushes it, and makes it the
// current token (its input n bytes long).
func (s *Scanner) openElement(name []byte, colon int, empty bool, n int, skip bool) error {
	nsBase := len(s.ns)
	for i := range s.spans {
		if a := &s.spans[i]; a.decl {
			a.uri = s.intern(a.value)
			s.ns = append(s.ns, binding{prefix: s.intern(a.local()), uri: a.uri})
		}
	}
	space, err := s.resolve(name, colon, true)
	if err != nil {
		s.ns = s.ns[:nsBase]
		return err
	}
	for i := range s.spans {
		if a := &s.spans[i]; !a.decl {
			if a.uri, err = s.resolve(a.name, a.colon, false); err != nil {
				s.ns = s.ns[:nsBase]
				return err
			}
		}
	}
	if err := s.checkUnique(); err != nil {
		s.ns = s.ns[:nsBase]
		return err
	}

	t := &s.tok
	t.Kind, t.Skipped, t.NumAttr = StartElement, skip, 0
	for i := range s.spans {
		if !s.spans[i].decl {
			t.NumAttr++
		}
	}
	s.stack = append(s.stack, openElem{rawStart: len(s.raw), nsBase: nsBase})
	e := &s.stack[len(s.stack)-1]
	s.raw = append(s.raw, name...)
	if !skip {
		e.name = Name{Space: space, Local: s.intern(name[colon+1:])}
		if colon > 0 {
			e.name.Prefix = s.intern(name[:colon])
		}
		s.attrs = s.attrs[:0]
		for i := range s.spans {
			a := &s.spans[i]
			at := Attr{Name: Name{Space: a.uri, Local: s.intern(a.local())}, Value: a.value, NS: a.decl}
			if !a.decl && a.colon > 0 {
				at.Name.Prefix = s.intern(a.name[:a.colon])
			}
			s.attrs = append(s.attrs, at)
		}
		t.Name, t.Attr = e.name, s.attrs
	}
	s.closing = empty
	s.consume(n)
	return nil
}

// resolve returns the namespace of a name as written: the default
// namespace for an element name without a prefix, none for such an
// attribute name, the xml namespace for the xml prefix, and otherwise the
// URI the prefix is bound to in scope, which must not be empty.
func (s *Scanner) resolve(name []byte, colon int, elem bool) (string, error) {
	if colon < 0 {
		if !elem {
			return "", nil
		}
		uri, _ := s.lookup(nil)
		return uri, nil
	}
	prefix := name[:colon]
	if string(prefix) == "xml" {
		return xmlNamespace, nil
	}
	if string(prefix) != "xmlns" {
		if uri, ok := s.lookup(prefix); ok && uri != "" {
			return uri, nil
		}
	}
	return "", s.syntaxError(s.pos, ErrUndeclaredPrefix, "%s %s in %s", ErrUndeclaredPrefix, prefix, name)
}

// checkUnique rejects a start tag with two attributes of one expanded name,
// or two declarations of one prefix.
func (s *Scanner) checkUnique() error {
	for i := 1; i < len(s.spans); i++ {
		a := &s.spans[i]
		for j := 0; j < i; j++ {
			b := &s.spans[j]
			if a.decl == b.decl && bytes.Equal(a.local(), b.local()) && (a.decl || a.uri == b.uri) {
				return s.syntaxError(s.pos, ErrDuplicateAttr, "%s %s", ErrDuplicateAttr, a.name)
			}
		}
	}
	return nil
}
