package xmlscan

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// Byte classes of character data. Each context (text, attribute value,
// CDATA section) maps a byte to what scanning it involves.
const (
	cPlain uint8 = iota // a Char other than white space, taken as it is
	cSpace              // white space taken as it is
	cBlank              // white space an attribute value normalizes to #x20
	cCR                 // carriage return: a line end to normalize
	cAmp                // a reference
	cLess               // "<": not allowed here
	cCtl                // a control character outside Char
	cHigh               // the first byte of a multi-byte sequence, or invalid
)

var textClass, attrClass, cdataClass [256]uint8

func init() {
	for c := 0; c < 256; c++ {
		var k uint8
		switch {
		case c >= utf8.RuneSelf:
			k = cHigh
		case c == ' ' || c == '\t' || c == '\n':
			k = cSpace
		case c == '\r':
			k = cCR
		case c < ' ':
			k = cCtl
		case c == '&':
			k = cAmp
		case c == '<':
			k = cLess
		}
		textClass[c], attrClass[c], cdataClass[c] = k, k, k
	}
	attrClass['\t'], attrClass['\n'] = cBlank, cBlank
	cdataClass['&'], cdataClass['<'] = cPlain, cPlain
}

// IsChar reports whether r is in the Char production of XML 1.0.
func IsChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// chars checks raw character data in one context and returns it decoded:
// raw itself when nothing in it changes, otherwise a copy appended to s.out
// (whose capacity the caller has made at least len(raw), so earlier results
// stay put). With keep false nothing is copied and data is nil. blank
// reports that the decoded data is all white space. A malformed raw yields
// the offset in it of the fault and a message.
func (s *Scanner) chars(raw []byte, class *[256]uint8, keep bool) (data []byte, blank bool, off int, msg string) {
	blank = true
	start := len(s.out)
	copying := false // s.out[start:] holds raw[:from] decoded
	from := 0
	// edit starts a rewrite at raw[i]: the bytes before it that were taken
	// verbatim are copied out first.
	edit := func(i int) {
		if !keep {
			return
		}
		if !copying {
			copying = true
			s.out = append(s.out, raw[:i]...)
		} else {
			s.out = append(s.out, raw[from:i]...)
		}
	}
	for i := 0; i < len(raw); {
		c := raw[i]
		switch class[c] {
		case cPlain:
			blank = false
			i++
		case cSpace:
			i++
		case cBlank:
			edit(i)
			if keep {
				s.out = append(s.out, ' ')
			}
			i++
			from = i
		case cCR:
			edit(i)
			if keep {
				if class == &attrClass {
					s.out = append(s.out, ' ')
				} else {
					s.out = append(s.out, '\n')
				}
			}
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
			from = i
		case cAmp:
			r, n, msg := reference(raw[i:])
			if msg != "" {
				return nil, false, i, msg
			}
			if !IsChar(r) {
				return nil, false, i, fmt.Sprintf("illegal character code %U", r)
			}
			edit(i)
			if keep {
				s.out = utf8.AppendRune(s.out, r)
			}
			blank = blank && (r == ' ' || r == '\t' || r == '\n' || r == '\r')
			i += n
			from = i
		case cLess:
			return nil, false, i, "unescaped < inside quoted string"
		case cCtl:
			return nil, false, i, fmt.Sprintf("illegal character code %U", rune(c))
		default:
			r, n := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return nil, false, i, "invalid UTF-8"
			}
			if !IsChar(r) {
				return nil, false, i, fmt.Sprintf("illegal character code %U", r)
			}
			blank = false
			i += n
		}
	}
	if !keep {
		return nil, blank, 0, ""
	}
	if !copying {
		return raw, blank, 0, ""
	}
	s.out = append(s.out, raw[from:]...)
	return s.out[start:], blank, 0, ""
}

// reference decodes the entity or character reference b starts with. It
// returns the character, the reference's length, and a message if b does
// not start with one of the five predefined entities or a character
// reference to a code point. A reference to a surrogate stands for U+FFFD.
func reference(b []byte) (r rune, n int, msg string) {
	bad := func(end int) (rune, int, string) {
		if end < len(b) && b[end] == ';' {
			return 0, 0, "invalid character entity " + string(b[:end+1])
		}
		return 0, 0, "invalid character entity " + string(b[:end]) + " (no semicolon)"
	}
	i := 1
	if i < len(b) && b[i] == '#' {
		i++
		base := rune(10)
		if i < len(b) && b[i] == 'x' {
			base = 16
			i++
		}
		d0 := i
		over := false
		for ; i < len(b); i++ {
			d := digit(b[i], base)
			if d < 0 {
				break
			}
			if r = r*base + d; r > unicode.MaxRune {
				over, r = true, unicode.MaxRune+1
			}
		}
		if i == d0 || i >= len(b) || b[i] != ';' || over {
			return bad(i)
		}
		if r >= 0xD800 && r <= 0xDFFF {
			r = utf8.RuneError
		}
		return r, i + 1, ""
	}
	for i < len(b) && isNameByte(b[i]) {
		i++
	}
	if i >= len(b) || b[i] != ';' {
		return bad(i)
	}
	switch string(b[1:i]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return bad(i)
	}
	return r, i + 1, ""
}

func digit(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// Name bytes: an ASCII byte a name may hold, and one it may start with.
// Every byte of a multi-byte sequence counts as a name byte until the name
// is checked rune by rune.
const (
	nameByte  = 1
	nameStart = 2
)

var nameClass [256]uint8

func init() {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			nameClass[c] = nameByte | nameStart
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
			nameClass[c] = nameByte | nameStart
		case '0' <= c && c <= '9', c == '.', c == '-':
			nameClass[c] = nameByte
		}
	}
}

func isNameByte(c byte) bool { return nameClass[c]&nameByte != 0 }

// scanName returns the end of the run of name bytes starting at b[i], and
// the number of colons in it and the offset of the first.
func scanName(b []byte, i int) (end, colons, colon int) {
	colon = -1
	for ; i < len(b) && nameClass[b[i]]&nameByte != 0; i++ {
		if b[i] == ':' {
			if colons == 0 {
				colon = i
			}
			colons++
		}
	}
	return i, colons, colon
}

// isName reports whether b is a Name: a run of name bytes whose first
// character is in first and whose others are in first or second.
func isName(b []byte) bool {
	if len(b) == 0 || nameClass[b[0]]&nameStart == 0 {
		return false
	}
	for i := 0; i < len(b); {
		if b[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(first, r) && (i == 0 || !unicode.Is(second, r)) {
			return false
		}
		i += n
	}
	return true
}

// startsNCName reports whether the Name b may also start an NCName: its
// first character is in first and is not a colon.
func startsNCName(b []byte) bool {
	if len(b) == 0 || b[0] == ':' {
		return false
	}
	if b[0] < utf8.RuneSelf {
		return nameClass[b[0]]&nameStart != 0
	}
	r, _ := utf8.DecodeRune(b)
	return unicode.Is(first, r)
}
