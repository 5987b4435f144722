package xqparse

import (
	"fmt"
	"strings"

	"xqgo/internal/expr"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Well-known namespace URIs.
const (
	NSXML   = "http://www.w3.org/XML/1998/namespace"
	NSXS    = "http://www.w3.org/2001/XMLSchema"
	NSXSI   = "http://www.w3.org/2001/XMLSchema-instance"
	NSFn    = "http://www.w3.org/2005/xpath-functions"
	NSXDT   = "http://www.w3.org/2005/xpath-datatypes"
	NSLocal = "http://www.w3.org/2005/xquery-local-functions"
)

// reservedFuncNames may not be parsed as function calls.
var reservedFuncNames = map[string]bool{
	"if": true, "typeswitch": true, "switch": true,
	"node": true, "text": true, "comment": true,
	"processing-instruction": true, "element": true, "attribute": true,
	"document-node": true, "item": true, "empty-sequence": true,
}

// parser holds the parse state.
type parser struct {
	lex *lexer
	tok token
	// small lookahead queue (filled by peek)
	queue []token

	ns            []map[string]string // namespace scopes, innermost last
	defaultElemNS string
	defaultFuncNS string
	boundaryPres  bool

	q *expr.Query
}

// Parse parses a complete query (prolog + body).
func Parse(src string) (*expr.Query, error) {
	p := &parser{
		lex: newLexer(src),
		ns: []map[string]string{{
			"xml":   NSXML,
			"xs":    NSXS,
			"xsi":   NSXSI,
			"fn":    NSFn,
			"xf":    NSFn, // the paper's F&O prefix
			"xdt":   NSXDT,
			"local": NSLocal,
		}},
		defaultFuncNS: NSFn,
		q: &expr.Query{
			Namespaces: map[string]string{},
		},
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.parseProlog(); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errf("unexpected %s after end of query", p.tok)
	}
	p.q.Body = body
	return p.q, nil
}

// ParseExpr parses a standalone expression (no prolog), for tests and tools.
func ParseExpr(src string) (expr.Expr, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Body, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) pos() expr.Pos { return expr.Pos{Line: p.tok.line, Col: p.tok.col} }

// advance moves to the next token, draining the peek queue first.
func (p *parser) advance() error {
	if len(p.queue) > 0 {
		p.tok = p.queue[0]
		p.queue = p.queue[1:]
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the nth lookahead token (1-based) without consuming.
func (p *parser) peek(n int) (token, error) {
	for len(p.queue) < n {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.queue = append(p.queue, t)
	}
	return p.queue[n-1], nil
}

// is reports whether the current token is a name with the given value.
func (p *parser) is(name string) bool {
	return p.tok.kind == tName && p.tok.val == name
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(k tokKind, what string) error {
	if p.tok.kind != k {
		return p.errf("expected %s, found %s", what, p.tok)
	}
	return p.advance()
}

// expectName consumes a specific keyword name.
func (p *parser) expectName(name string) error {
	if !p.is(name) {
		return p.errf("expected %q, found %s", name, p.tok)
	}
	return p.advance()
}

// ---- namespace environment ----

func (p *parser) pushNS() { p.ns = append(p.ns, map[string]string{}) }
func (p *parser) popNS()  { p.ns = p.ns[:len(p.ns)-1] }

func (p *parser) bindNS(prefix, uri string) { p.ns[len(p.ns)-1][prefix] = uri }

func (p *parser) lookupNS(prefix string) (string, bool) {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if uri, ok := p.ns[i][prefix]; ok {
			return uri, true
		}
	}
	return "", false
}

// resolveQName resolves a lexical QName. kind selects the default namespace
// rule: "elem" uses the default element namespace (the xmlns="..." of the
// innermost enclosing direct constructor that has one, else the prolog's),
// "func" the default function namespace, "" none (variables, attributes).
func (p *parser) resolveQName(lexical string, kind string) (xdm.QName, error) {
	prefix, local := xdm.SplitLexical(lexical)
	if prefix == "" {
		switch kind {
		case "elem":
			if uri, ok := p.lookupNS(""); ok {
				return xdm.QName{Space: uri, Local: local}, nil
			}
			return xdm.QName{Space: p.defaultElemNS, Local: local}, nil
		case "func":
			q := xdm.QName{Space: p.defaultFuncNS, Local: local}
			if q.Space == NSFn {
				q.Prefix = "fn"
			}
			return q, nil
		default:
			return xdm.QName{Local: local}, nil
		}
	}
	uri, ok := p.lookupNS(prefix)
	if !ok {
		return xdm.QName{}, p.errf("undeclared namespace prefix %q", prefix)
	}
	return xdm.QName{Space: uri, Local: local, Prefix: prefix}, nil
}

// ---- prolog ----

func (p *parser) parseProlog() error {
	// optional version declaration
	if p.is("xquery") {
		if t, _ := p.peek(1); t.kind == tName && t.val == "version" {
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tString {
				return p.errf("expected version string")
			}
			if err := p.advance(); err != nil {
				return err
			}
			if p.is("encoding") {
				if err := p.advance(); err != nil {
					return err
				}
				if p.tok.kind != tString {
					return p.errf("expected encoding string")
				}
				if err := p.advance(); err != nil {
					return err
				}
			}
			if err := p.expect(tSemicolon, `";"`); err != nil {
				return err
			}
		}
	}
	for {
		switch {
		case p.is("declare"):
			handled, err := p.parseDeclare()
			if err != nil {
				return err
			}
			if !handled {
				// "declare" here is an ordinary element name (XQuery has no
				// reserved words); the prolog is over.
				return nil
			}
		case p.is("import"):
			return p.errf("schema/module imports are not supported (see DESIGN.md)")
		case p.is("module"):
			return p.errf("library modules are not supported; only main modules")
		default:
			return nil
		}
	}
}

// parseDeclare parses one "declare ..." prolog entry. handled=false means
// the tokens were left untouched because "declare" does not begin a
// declaration here (it is an element name in the body).
func (p *parser) parseDeclare() (bool, error) {
	// To distinguish "declare namespace ..." from a path starting with the
	// element name "declare", require the next token to be a known
	// declaration keyword.
	t, err := p.peek(1)
	if err != nil {
		return false, err
	}
	if t.kind != tName {
		return false, nil
	}
	switch t.val {
	case "namespace", "default", "variable", "function", "boundary-space",
		"construction", "ordering", "copy-namespaces", "base-uri", "option":
	default:
		return false, nil // not a prolog declaration; leave for the body
	}
	if err := p.advance(); err != nil { // consume "declare"
		return false, err
	}
	switch {
	case p.is("namespace"):
		if err := p.advance(); err != nil {
			return true, err
		}
		if p.tok.kind != tName {
			return true, p.errf("expected namespace prefix")
		}
		prefix := p.tok.val
		if err := p.advance(); err != nil {
			return true, err
		}
		if err := p.expect(tEq, `"="`); err != nil {
			return true, err
		}
		if p.tok.kind != tString {
			return true, p.errf("expected namespace URI string")
		}
		p.bindNS(prefix, p.tok.val)
		p.q.Namespaces[prefix] = p.tok.val
		if err := p.advance(); err != nil {
			return true, err
		}
	case p.is("default"):
		if err := p.advance(); err != nil {
			return true, err
		}
		which := p.tok.val
		if which != "element" && which != "function" {
			return true, p.errf("expected 'element' or 'function' after 'declare default'")
		}
		if err := p.advance(); err != nil {
			return true, err
		}
		if err := p.expectName("namespace"); err != nil {
			return true, err
		}
		if p.tok.kind != tString {
			return true, p.errf("expected namespace URI string")
		}
		if which == "element" {
			p.defaultElemNS = p.tok.val
			p.q.DefaultElemNS = p.tok.val
		} else {
			p.defaultFuncNS = p.tok.val
			p.q.DefaultFuncNS = p.tok.val
		}
		if err := p.advance(); err != nil {
			return true, err
		}
	case p.is("boundary-space"):
		if err := p.advance(); err != nil {
			return true, err
		}
		switch p.tok.val {
		case "preserve":
			p.boundaryPres = true
		case "strip":
			p.boundaryPres = false
		default:
			return true, p.errf("expected 'preserve' or 'strip'")
		}
		if err := p.advance(); err != nil {
			return true, err
		}
	case p.is("construction"), p.is("ordering"), p.is("copy-namespaces"), p.is("option"):
		// Accepted and ignored: skip tokens to the semicolon.
		for p.tok.kind != tSemicolon && p.tok.kind != tEOF {
			if err := p.advance(); err != nil {
				return true, err
			}
		}
	case p.is("base-uri"):
		if err := p.advance(); err != nil {
			return true, err
		}
		if p.tok.kind != tString {
			return true, p.errf("expected base URI string")
		}
		if err := p.advance(); err != nil {
			return true, err
		}
	case p.is("variable"):
		if err := p.parseVarDecl(); err != nil {
			return true, err
		}
	case p.is("function"):
		if err := p.parseFuncDecl(); err != nil {
			return true, err
		}
	default:
		return true, p.errf("unsupported declaration %q", p.tok.val)
	}
	return true, p.expect(tSemicolon, `";"`)
}

func (p *parser) parseVarDecl() error {
	if err := p.advance(); err != nil { // "variable"
		return err
	}
	if err := p.expect(tDollar, `"$"`); err != nil {
		return err
	}
	if p.tok.kind != tName {
		return p.errf("expected variable name")
	}
	name, err := p.resolveQName(p.tok.val, "")
	if err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return err
	}
	var typ *xtypes.SequenceType
	if p.is("as") {
		if err := p.advance(); err != nil {
			return err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return err
		}
		typ = &t
	}
	vd := expr.VarDecl{Name: name, Type: typ}
	switch {
	case p.is("external"):
		vd.External = true
		if err := p.advance(); err != nil {
			return err
		}
	case p.tok.kind == tAssign:
		if err := p.advance(); err != nil {
			return err
		}
		init, err := p.parseExprSingle()
		if err != nil {
			return err
		}
		vd.Init = init
	case p.tok.kind == tLBrace: // older "{ expr }" form
		if err := p.advance(); err != nil {
			return err
		}
		init, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect(tRBrace, `"}"`); err != nil {
			return err
		}
		vd.Init = init
	default:
		return p.errf(`expected ":=", "{" or "external" in variable declaration`)
	}
	p.q.Vars = append(p.q.Vars, vd)
	return nil
}

func (p *parser) parseFuncDecl() error {
	if err := p.advance(); err != nil { // "function"
		return err
	}
	if p.tok.kind != tName {
		return p.errf("expected function name")
	}
	// Unprefixed declared functions default to the local namespace.
	lexical := p.tok.val
	var name xdm.QName
	var err error
	if !strings.Contains(lexical, ":") {
		name = xdm.QName{Space: NSLocal, Local: lexical, Prefix: "local"}
	} else if name, err = p.resolveQName(lexical, ""); err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect(tLParen, `"("`); err != nil {
		return err
	}
	var params []expr.Param
	for p.tok.kind != tRParen {
		if len(params) > 0 {
			if err := p.expect(tComma, `","`); err != nil {
				return err
			}
		}
		if err := p.expect(tDollar, `"$"`); err != nil {
			return err
		}
		if p.tok.kind != tName {
			return p.errf("expected parameter name")
		}
		pname, err := p.resolveQName(p.tok.val, "")
		if err != nil {
			return err
		}
		if err := p.advance(); err != nil {
			return err
		}
		var typ *xtypes.SequenceType
		if p.is("as") {
			if err := p.advance(); err != nil {
				return err
			}
			t, err := p.parseSequenceType()
			if err != nil {
				return err
			}
			typ = &t
		}
		params = append(params, expr.Param{Name: pname, Type: typ})
	}
	if err := p.advance(); err != nil { // ')'
		return err
	}
	var ret *xtypes.SequenceType
	if p.is("as") {
		if err := p.advance(); err != nil {
			return err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return err
		}
		ret = &t
	}
	if p.is("external") {
		return p.errf("external functions are not supported")
	}
	if err := p.expect(tLBrace, `"{"`); err != nil {
		return err
	}
	body, err := p.parseExpr()
	if err != nil {
		return err
	}
	if err := p.expect(tRBrace, `"}"`); err != nil {
		return err
	}
	p.q.Funcs = append(p.q.Funcs, expr.FuncDecl{Name: name, Params: params, Ret: ret, Body: body})
	return nil
}

// ---- expressions ----

// parseExpr parses Expr: ExprSingle ("," ExprSingle)*.
func (p *parser) parseExpr() (expr.Expr, error) {
	pos := p.pos()
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tComma {
		return first, nil
	}
	items := []expr.Expr{first}
	for p.tok.kind == tComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &expr.Seq{Base: expr.Base{P: pos}, Items: items}, nil
}

// parseExprSingle dispatches on the leading keyword.
func (p *parser) parseExprSingle() (expr.Expr, error) {
	if p.tok.kind == tName {
		switch p.tok.val {
		case "for", "let":
			if t, err := p.peek(1); err != nil {
				return nil, err
			} else if t.kind == tDollar {
				return p.parseFlwor()
			}
		case "some", "every":
			if t, err := p.peek(1); err != nil {
				return nil, err
			} else if t.kind == tDollar {
				return p.parseQuantified()
			}
		case "if":
			if t, err := p.peek(1); err != nil {
				return nil, err
			} else if t.kind == tLParen {
				return p.parseIf()
			}
		case "typeswitch":
			if t, err := p.peek(1); err != nil {
				return nil, err
			} else if t.kind == tLParen {
				return p.parseTypeswitch()
			}
		case "try":
			if t, err := p.peek(1); err != nil {
				return nil, err
			} else if t.kind == tLBrace {
				return p.parseTryCatch()
			}
		case "validate":
			if t, err := p.peek(1); err != nil {
				return nil, err
			} else if t.kind == tLBrace || (t.kind == tName && (t.val == "lax" || t.val == "strict")) {
				return nil, p.errf("validate{} requires schema support, which is not implemented (see DESIGN.md)")
			}
		}
	}
	return p.parseOr()
}

func (p *parser) parseFlwor() (expr.Expr, error) {
	pos := p.pos()
	f := &expr.Flwor{Base: expr.Base{P: pos}}
	for p.is("for") || p.is("let") {
		isFor := p.is("for")
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if err := p.expect(tDollar, `"$"`); err != nil {
				return nil, err
			}
			if p.tok.kind != tName {
				return nil, p.errf("expected variable name")
			}
			v, err := p.resolveQName(p.tok.val, "")
			if err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			cl := expr.Clause{Var: v}
			if isFor {
				cl.Kind = expr.ForClause
			} else {
				cl.Kind = expr.LetClause
			}
			if p.is("as") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				t, err := p.parseSequenceType()
				if err != nil {
					return nil, err
				}
				cl.Type = &t
			}
			if isFor && p.is("at") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expect(tDollar, `"$"`); err != nil {
					return nil, err
				}
				if p.tok.kind != tName {
					return nil, p.errf("expected positional variable name")
				}
				pv, err := p.resolveQName(p.tok.val, "")
				if err != nil {
					return nil, err
				}
				cl.PosVar = pv
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if isFor {
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
			} else if err := p.expect(tAssign, `":="`); err != nil {
				return nil, err
			}
			in, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			cl.In = in
			f.Clauses = append(f.Clauses, cl)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if len(f.Clauses) == 0 {
		return nil, p.errf("FLWOR requires at least one for/let clause")
	}
	if p.is("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	if p.is("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			if err := p.expect(tDollar, `"$"`); err != nil {
				return nil, err
			}
			if p.tok.kind != tName {
				return nil, p.errf("expected grouping variable name")
			}
			gv, err := p.resolveQName(p.tok.val, "")
			if err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tAssign, `":="`); err != nil {
				return nil, err
			}
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			f.Group = append(f.Group, expr.GroupSpec{Var: gv, Key: key})
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.is("stable") {
		f.Stable = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.is("order") {
			return nil, p.errf(`expected "order" after "stable"`)
		}
	}
	if p.is("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := expr.OrderSpec{Key: key}
			if p.is("ascending") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.is("descending") {
				spec.Descending = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if p.is("empty") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				switch {
				case p.is("greatest"):
				case p.is("least"):
					spec.EmptyLeast = true
				default:
					return nil, p.errf(`expected "greatest" or "least"`)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if p.is("collation") {
				return nil, p.errf("collations other than codepoint are not supported")
			}
			f.Order = append(f.Order, spec)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	f.Ret = ret
	return f, nil
}

func (p *parser) parseQuantified() (expr.Expr, error) {
	pos := p.pos()
	every := p.is("every")
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &expr.Quantified{Base: expr.Base{P: pos}, Every: every}
	for {
		if err := p.expect(tDollar, `"$"`); err != nil {
			return nil, err
		}
		if p.tok.kind != tName {
			return nil, p.errf("expected variable name")
		}
		v, err := p.resolveQName(p.tok.val, "")
		if err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.is("as") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.parseSequenceType(); err != nil {
				return nil, err
			}
		}
		if err := p.expectName("in"); err != nil {
			return nil, err
		}
		in, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		q.Binds = append(q.Binds, expr.QBind{Var: v, In: in})
		if p.tok.kind != tComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = sat
	return q, nil
}

func (p *parser) parseIf() (expr.Expr, error) {
	pos := p.pos()
	if err := p.advance(); err != nil { // "if"
		return nil, err
	}
	if err := p.expect(tLParen, `"("`); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen, `")"`); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &expr.If{Base: expr.Base{P: pos}, Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseTypeswitch() (expr.Expr, error) {
	pos := p.pos()
	if err := p.advance(); err != nil { // "typeswitch"
		return nil, err
	}
	if err := p.expect(tLParen, `"("`); err != nil {
		return nil, err
	}
	input, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen, `")"`); err != nil {
		return nil, err
	}
	ts := &expr.Typeswitch{Base: expr.Base{P: pos}, Input: input}
	for p.is("case") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var c expr.TSCase
		if p.tok.kind == tDollar {
			if err := p.advance(); err != nil {
				return nil, err
			}
			v, err := p.resolveQName(p.tok.val, "")
			if err != nil {
				return nil, err
			}
			c.Var = v
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectName("as"); err != nil {
				return nil, err
			}
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		c.Type = t
		if err := p.expectName("return"); err != nil {
			return nil, err
		}
		body, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		c.Body = body
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		return nil, p.errf("typeswitch requires at least one case")
	}
	if err := p.expectName("default"); err != nil {
		return nil, err
	}
	if p.tok.kind == tDollar {
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.resolveQName(p.tok.val, "")
		if err != nil {
			return nil, err
		}
		ts.DefaultVar = v
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	def, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	ts.Default = def
	return ts, nil
}

// ---- operator precedence chain ----

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.is("or") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Logic{Base: expr.Base{P: pos}, And: false, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.is("and") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &expr.Logic{Base: expr.Base{P: pos}, And: true, L: l, R: r}
	}
	return l, nil
}

var valueCompOps = map[string]xdm.CompOp{
	"eq": xdm.OpEq, "ne": xdm.OpNe, "lt": xdm.OpLt,
	"le": xdm.OpLe, "gt": xdm.OpGt, "ge": xdm.OpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	pos := p.pos()
	// value comparisons
	if p.tok.kind == tName {
		if op, ok := valueCompOps[p.tok.val]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			return &expr.Compare{Base: expr.Base{P: pos}, Kind: expr.CompValue, Op: op, L: l, R: r}, nil
		}
		if p.tok.val == "is" || p.tok.val == "isnot" {
			neg := p.tok.val == "isnot"
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			nc := &expr.NodeCompare{Base: expr.Base{P: pos}, Op: expr.NodeIs, L: l, R: r}
			if neg {
				return &expr.Call{
					Base: expr.Base{P: pos},
					Name: xdm.QName{Space: NSFn, Local: "not", Prefix: "fn"},
					Args: []expr.Expr{nc},
				}, nil
			}
			return nc, nil
		}
	}
	// general and node-order comparisons
	var gop xdm.CompOp
	var isGeneral bool
	var nop expr.NodeCompOp
	var isNodeOrder bool
	switch p.tok.kind {
	case tEq:
		gop, isGeneral = xdm.OpEq, true
	case tNe:
		gop, isGeneral = xdm.OpNe, true
	case tLt:
		gop, isGeneral = xdm.OpLt, true
	case tLe:
		gop, isGeneral = xdm.OpLe, true
	case tGt:
		gop, isGeneral = xdm.OpGt, true
	case tGe:
		gop, isGeneral = xdm.OpGe, true
	case tLtLt:
		nop, isNodeOrder = expr.NodePrecedes, true
	case tGtGt:
		nop, isNodeOrder = expr.NodeFollows, true
	}
	if isGeneral {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		return &expr.Compare{Base: expr.Base{P: pos}, Kind: expr.CompGeneral, Op: gop, L: l, R: r}, nil
	}
	if isNodeOrder {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		return &expr.NodeCompare{Base: expr.Base{P: pos}, Op: nop, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseRange() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.is("to") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Range{Base: expr.Base{P: pos}, Lo: l, Hi: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tPlus || p.tok.kind == tMinus {
		pos := p.pos()
		op := xdm.OpAdd
		if p.tok.kind == tMinus {
			op = xdm.OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &expr.Arith{Base: expr.Base{P: pos}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		var op xdm.ArithOp
		switch {
		case p.tok.kind == tStar:
			op = xdm.OpMul
		case p.is("div"):
			op = xdm.OpDiv
		case p.is("idiv"):
			op = xdm.OpIDiv
		case p.is("mod"):
			op = xdm.OpMod
		default:
			return l, nil
		}
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		l = &expr.Arith{Base: expr.Base{P: pos}, Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnion() (expr.Expr, error) {
	l, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tBar || p.is("union") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		l = &expr.SetOp{Base: expr.Base{P: pos}, Op: expr.SetUnion, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseIntersectExcept() (expr.Expr, error) {
	l, err := p.parseInstanceOf()
	if err != nil {
		return nil, err
	}
	for p.is("intersect") || p.is("except") {
		pos := p.pos()
		op := expr.SetIntersect
		if p.is("except") {
			op = expr.SetExcept
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseInstanceOf()
		if err != nil {
			return nil, err
		}
		l = &expr.SetOp{Base: expr.Base{P: pos}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseInstanceOf() (expr.Expr, error) {
	l, err := p.parseTreat()
	if err != nil {
		return nil, err
	}
	if p.is("instance") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("of"); err != nil {
			return nil, err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		return &expr.InstanceOf{Base: expr.Base{P: pos}, X: l, T: t}, nil
	}
	return l, nil
}

func (p *parser) parseTreat() (expr.Expr, error) {
	l, err := p.parseCastable()
	if err != nil {
		return nil, err
	}
	if p.is("treat") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		return &expr.Treat{Base: expr.Base{P: pos}, X: l, T: t}, nil
	}
	return l, nil
}

func (p *parser) parseCastable() (expr.Expr, error) {
	l, err := p.parseCast()
	if err != nil {
		return nil, err
	}
	if p.is("castable") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		t, opt, err := p.parseSingleType()
		if err != nil {
			return nil, err
		}
		return &expr.Cast{Base: expr.Base{P: pos}, X: l, T: t, Optional: opt, Castable: true}, nil
	}
	return l, nil
}

func (p *parser) parseCast() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.is("cast") {
		pos := p.pos()
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		t, opt, err := p.parseSingleType()
		if err != nil {
			return nil, err
		}
		return &expr.Cast{Base: expr.Base{P: pos}, X: l, T: t, Optional: opt}, nil
	}
	return l, nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	neg := false
	pos := p.pos()
	for p.tok.kind == tMinus || p.tok.kind == tPlus {
		if p.tok.kind == tMinus {
			neg = !neg
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	e, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if neg {
		return &expr.Neg{Base: expr.Base{P: pos}, X: e}, nil
	}
	return e, nil
}

// parseTryCatch parses try { E } catch * { F } (the error-handling
// extension; wildcard catch only).
func (p *parser) parseTryCatch() (expr.Expr, error) {
	pos := p.pos()
	if err := p.advance(); err != nil { // "try"
		return nil, err
	}
	if err := p.expect(tLBrace, `"{"`); err != nil {
		return nil, err
	}
	tryE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, `"}"`); err != nil {
		return nil, err
	}
	if err := p.expectName("catch"); err != nil {
		return nil, err
	}
	if err := p.expect(tStar, `"*" (only wildcard catch clauses are supported)`); err != nil {
		return nil, err
	}
	if err := p.expect(tLBrace, `"{"`); err != nil {
		return nil, err
	}
	catchE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, `"}"`); err != nil {
		return nil, err
	}
	return &expr.TryCatch{Base: expr.Base{P: pos}, Try: tryE, Catch: catchE}, nil
}
