// Package xqparse parses XQuery source text into the internal expression
// tree (internal/expr). The grammar covered is the subset documented in
// DESIGN.md §3; unsupported constructs are rejected with positioned errors.
//
// XQuery has no reserved words, so the lexer produces generic name tokens
// and the parser recognizes keywords contextually; direct XML constructors
// are scanned in a character-level mode entered when the parser sees "<" in
// a position where a primary expression is expected.
package xqparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"xqgo/internal/xdm"
	"xqgo/internal/xmlscan"
)

// tokKind is a lexical token kind.
type tokKind uint8

const (
	tEOF tokKind = iota
	tName
	tString  // string literal, decoded
	tInteger // numeric literals keep their lexical form in val
	tDecimal
	tDouble
	tDollar // $
	tLParen
	tRParen
	tLBracket
	tRBracket
	tLBrace
	tRBrace
	tComma
	tSemicolon
	tSlash      // /
	tSlashSlash // //
	tDot        // .
	tDotDot     // ..
	tAt         // @
	tColonColon // ::
	tColon      // : (only inside QNames; normally merged)
	tStar       // *
	tPlus       // +
	tMinus      // -
	tEq         // =
	tNe         // !=
	tLt         // <
	tLe         // <=
	tGt         // >
	tGe         // >=
	tLtLt       // <<
	tGtGt       // >>
	tBar        // |
	tAssign     // :=
	tQuestion   // ?
)

// token is one lexical token.
type token struct {
	kind tokKind
	val  string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of query"
	case tName, tInteger, tDecimal, tDouble:
		return fmt.Sprintf("%q", t.val)
	case tString:
		return fmt.Sprintf("string %q", t.val)
	default:
		return fmt.Sprintf("%q", t.val)
	}
}

// lexer scans XQuery source.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// Error is a positioned parse error. A query the grammar rejects is
// err:XPST0003 (XQuery 1.0 §2.3.1): errors.As reads an Error as that
// *xdm.Error, whose message keeps the line and column.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return e.Unwrap().Error() }

// Unwrap returns the error as err:XPST0003.
func (e *Error) Unwrap() error {
	return xdm.Errf("XPST0003", "xquery:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

// checkChars rejects text that is not UTF-8 or holds a character outside
// XML 1.0's Char production: XQuery's terminals are made of Chars (XQuery
// 1.0 §A.2), so such a query is err:XPST0003, and a string literal could
// otherwise carry the character to serialized output.
func checkChars(src string) error {
	line, col := 1, 1
	for i := 0; i < len(src); {
		r, n := utf8.DecodeRuneInString(src[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			return &Error{Line: line, Col: col, Msg: "invalid UTF-8"}
		case !xmlscan.IsChar(r):
			return &Error{Line: line, Col: col, Msg: fmt.Sprintf("invalid character %U", r)}
		case r == '\n':
			line, col = line+1, 1
		default:
			col++
		}
		i += n
	}
	return nil
}

// peekRune returns the rune at the cursor without consuming.
func (l *lexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// readRune consumes one rune.
func (l *lexer) readRune() rune {
	if l.pos >= len(l.src) {
		return -1
	}
	r, n := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += n
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// skipSpaceAndComments skips whitespace and (: nested comments :).
func (l *lexer) skipSpaceAndComments() error {
	for {
		r := l.peekRune()
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			l.readRune()
			continue
		}
		if r == '(' && l.peekAt(1) == ':' {
			start := *l
			l.readRune()
			l.readRune()
			depth := 1
			for depth > 0 {
				c := l.readRune()
				switch {
				case c == -1:
					return start.errf("unterminated comment")
				case c == '(' && l.peekRune() == ':':
					l.readRune()
					depth++
				case c == ':' && l.peekRune() == ')':
					l.readRune()
					depth--
				}
			}
			continue
		}
		return nil
	}
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// scanNCName reads an NCName starting at the cursor.
func (l *lexer) scanNCName() string {
	start := l.pos
	for isNameChar(l.peekRune()) {
		l.readRune()
	}
	return l.src[start:l.pos]
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	mk := func(k tokKind, v string) token { return token{kind: k, val: v, line: line, col: col} }
	r := l.peekRune()
	switch {
	case r == -1:
		return mk(tEOF, ""), nil
	case isNameStart(r):
		name := l.scanNCName()
		// QName: NCName ':' NCName with no intervening space. Exclude '::'
		// (axis) and ':=' (assign).
		if l.peekRune() == ':' && l.peekAt(1) != ':' && l.peekAt(1) != '=' {
			save := *l
			l.readRune() // ':'
			if l.peekRune() == '*' {
				l.readRune()
				return mk(tName, name+":*"), nil
			}
			if isNameStart(l.peekRune()) {
				local := l.scanNCName()
				return mk(tName, name+":"+local), nil
			}
			*l = save
		}
		return mk(tName, name), nil
	case r >= '0' && r <= '9', r == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9':
		return l.scanNumber(line, col)
	case r == '"' || r == '\'':
		s, err := l.scanString(byte(r))
		if err != nil {
			return token{}, err
		}
		return mk(tString, s), nil
	}
	l.readRune()
	switch r {
	case '$':
		return mk(tDollar, "$"), nil
	case '(':
		return mk(tLParen, "("), nil
	case ')':
		return mk(tRParen, ")"), nil
	case '[':
		return mk(tLBracket, "["), nil
	case ']':
		return mk(tRBracket, "]"), nil
	case '{':
		return mk(tLBrace, "{"), nil
	case '}':
		return mk(tRBrace, "}"), nil
	case ',':
		return mk(tComma, ","), nil
	case ';':
		return mk(tSemicolon, ";"), nil
	case '?':
		return mk(tQuestion, "?"), nil
	case '@':
		return mk(tAt, "@"), nil
	case '|':
		return mk(tBar, "|"), nil
	case '+':
		return mk(tPlus, "+"), nil
	case '-':
		return mk(tMinus, "-"), nil
	case '=':
		return mk(tEq, "="), nil
	case '!':
		if l.peekRune() == '=' {
			l.readRune()
			return mk(tNe, "!="), nil
		}
		return token{}, l.errf("unexpected character %q", "!")
	case '<':
		switch l.peekRune() {
		case '=':
			l.readRune()
			return mk(tLe, "<="), nil
		case '<':
			l.readRune()
			return mk(tLtLt, "<<"), nil
		}
		return mk(tLt, "<"), nil
	case '>':
		switch l.peekRune() {
		case '=':
			l.readRune()
			return mk(tGe, ">="), nil
		case '>':
			l.readRune()
			return mk(tGtGt, ">>"), nil
		}
		return mk(tGt, ">"), nil
	case '/':
		if l.peekRune() == '/' {
			l.readRune()
			return mk(tSlashSlash, "//"), nil
		}
		return mk(tSlash, "/"), nil
	case '.':
		if l.peekRune() == '.' {
			l.readRune()
			return mk(tDotDot, ".."), nil
		}
		return mk(tDot, "."), nil
	case ':':
		if l.peekRune() == ':' {
			l.readRune()
			return mk(tColonColon, "::"), nil
		}
		if l.peekRune() == '=' {
			l.readRune()
			return mk(tAssign, ":="), nil
		}
		return mk(tColon, ":"), nil
	case '*':
		if l.peekRune() == ':' && isNameStart(rune(l.peekAt(1))) {
			l.readRune()
			local := l.scanNCName()
			return mk(tName, "*:"+local), nil
		}
		return mk(tStar, "*"), nil
	}
	return token{}, l.errf("unexpected character %q", string(r))
}

// scanNumber reads an integer/decimal/double literal.
func (l *lexer) scanNumber(line, col int) (token, error) {
	start := l.pos
	kind := tInteger
	for r := l.peekRune(); r >= '0' && r <= '9'; r = l.peekRune() {
		l.readRune()
	}
	if l.peekRune() == '.' && !(l.peekAt(1) == '.') {
		kind = tDecimal
		l.readRune()
		for r := l.peekRune(); r >= '0' && r <= '9'; r = l.peekRune() {
			l.readRune()
		}
	}
	if r := l.peekRune(); r == 'e' || r == 'E' {
		save := *l
		l.readRune()
		if r := l.peekRune(); r == '+' || r == '-' {
			l.readRune()
		}
		if r := l.peekRune(); r >= '0' && r <= '9' {
			kind = tDouble
			for r := l.peekRune(); r >= '0' && r <= '9'; r = l.peekRune() {
				l.readRune()
			}
		} else {
			*l = save
		}
	}
	return token{kind: kind, val: l.src[start:l.pos], line: line, col: col}, nil
}

// scanString reads a string literal delimited by quote, handling doubled
// delimiters and predefined/character entity references.
func (l *lexer) scanString(quote byte) (string, error) {
	l.readRune() // opening quote
	var b strings.Builder
	for {
		r := l.readRune()
		switch {
		case r == -1:
			return "", l.errf("unterminated string literal")
		case r == rune(quote):
			if l.peekRune() == rune(quote) {
				l.readRune()
				b.WriteByte(quote)
				continue
			}
			return b.String(), nil
		case r == '&':
			s, err := l.entityRef()
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		default:
			b.WriteRune(r)
		}
	}
}

// entityRef decodes an entity reference after '&' has been consumed.
func (l *lexer) entityRef() (string, error) {
	start := l.pos
	for l.peekRune() != ';' {
		if l.peekRune() == -1 {
			return "", l.errf("unterminated entity reference")
		}
		l.readRune()
	}
	name := l.src[start:l.pos]
	l.readRune() // ';'
	switch name {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "quot":
		return `"`, nil
	case "apos":
		return "'", nil
	}
	if strings.HasPrefix(name, "#x") || strings.HasPrefix(name, "#X") {
		var cp int32
		if _, err := fmt.Sscanf(name[2:], "%x", &cp); err != nil {
			return "", l.errf("bad character reference &%s;", name)
		}
		return string(rune(cp)), nil
	}
	if strings.HasPrefix(name, "#") {
		var cp int32
		if _, err := fmt.Sscanf(name[1:], "%d", &cp); err != nil {
			return "", l.errf("bad character reference &%s;", name)
		}
		return string(rune(cp)), nil
	}
	return "", l.errf("unknown entity reference &%s;", name)
}
