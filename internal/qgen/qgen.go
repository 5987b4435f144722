// Package qgen generates small (document, query) pairs for differential
// testing. One seed fixes both: a document with namespaces (a prefix, a
// default namespace on a subtree, two prefixes bound to one URI),
// attributes, mixed content, whitespace-only text, comments, processing
// instructions and names that repeat at several depths, and a query over
// that document's names, so that its steps select something.
//
// Queries walk the subset of DESIGN.md §3 by a grammar: paths over every
// supported axis with numeric, boolean, positional and last() predicates,
// predicate-free step chains in every scalar position (DESIGN.md §13),
// focus built-ins with and without their argument, FLWOR with at, where,
// order by and group by, FLWORs over join paths (plain element names with
// a descendant edge, what the runtime may run as a holistic path join)
// with several for clauses, order by and constructors in return,
// quantifiers, direct and computed constructors
// with duplicate and copied attributes, try/catch, declared functions and
// operators that can fail. Binary and type operators come from levels, the
// XQuery 1.0 precedence table in the order the parser descends it.
package qgen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"xqgo/internal/functions"
)

// Case is one generated pair.
type Case struct{ Doc, Query string }

// New returns the case of seed.
func New(seed int64) Case {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	doc := g.document()
	return Case{Doc: doc, Query: g.query()}
}

// A kind is what an expression is generated to return: n a number, s a
// string, b a boolean, p nodes, a any of those.

// level is one precedence level: its operators, the kinds of its result
// and operands, for a type operator the types on its right, and whether it
// is left-associative (its left operand may be of the same level).
type level struct {
	ops     []string
	out, in byte
	types   []string
	chain   bool
}

// levels is XQuery 1.0's precedence table from loosest to tightest, the
// order of parseOr … parseUnary. Comparison, range and the type operators
// are non-associative; unary prefixes its operand.
var levels = []level{
	{[]string{"or"}, 'b', 'b', nil, true},
	{[]string{"and"}, 'b', 'b', nil, true},
	{[]string{"=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge"}, 'b', 'a', nil, false},
	{[]string{"to"}, 'a', 'n', nil, false},
	{[]string{"+", "-"}, 'n', 'n', nil, true},
	{[]string{"*", "div", "idiv", "mod"}, 'n', 'n', nil, true},
	{[]string{"union", "|"}, 'p', 'p', nil, true},
	{[]string{"intersect", "except"}, 'p', 'p', nil, true},
	{[]string{"instance of"}, 'b', 'a', []string{"xs:integer", "xs:string*", "node()*", "element()+", "item()?", "attribute()"}, false},
	{[]string{"treat as"}, 'p', 'p', []string{"node()*", "element()?", "item()+"}, false},
	{[]string{"castable as"}, 'b', 'a', []string{"xs:integer", "xs:double?", "xs:boolean"}, false},
	{[]string{"cast as"}, 'n', 'a', []string{"xs:integer", "xs:double?", "xs:decimal"}, false},
	{[]string{"-", "+"}, 'n', 'n', nil, false},
}

const (
	unary = 12 // the index of the unary level
	top   = -1 // expr's min for an ExprSingle, which needs no parentheses
)

// grammar holds the productions of each kind, and of x (an ExprSingle), c
// (a constructor) and w (a string from the focus). In a production, %n %s
// %b %p %a %c %w are holes for an expression of that kind, in capitals
// with a node as its focus; %k is the kind asked for; %v binds a fresh node
// variable for the rest of the production, %i a number one and %g a string
// one, in scope from the hole after the next on, and %V %I %G name the last
// bound; %o is a range; %f calls a focus built-in, %z one without its
// argument; %l names a declared function; %t is a path, %h a step chain,
// %r forward element steps from the root, %j a join path; %q is the bound
// of a positional predicate, %y a positional predicate; %= repeats the
// hole before it. A production that starts with "." needs a focus.
var grammar = map[byte][]string{
	'n': {"0", "1", "2", "3", "2.5", "1e0", "count(%p)", "sum(%p)", "max(%p)", "xs:integer(%a)", ".position()", ".last()", "%f", "%l(%a)",
		"count(%h)", "sum(%h)", "count(%j)", "avg(%h)", "min(%h)", "max(%h)", "count(distinct-values(%h))"},
	's': {`"1"`, `"x"`, `"a b"`, `""`, `concat(%a, "-", %a, "-", %a)`, `string-join(%a, ",")`, "%f", "string(%h)",
		`string-join(distinct-values(%h), ",")`},
	'b': {"true()", "false()", "not(%a)", "exists(%p)", "empty(%p)", "boolean(%p)", "exists(%h)", "empty(%h)", "(%h = (%a))", "(%h eq (%a))"},
	'p': {"//a", "/r/b", "//*", "%t", "%t", "%t", "%c", "%c", "%c", "%h",
		"(%p)%y", "(%p, error())%y", "subsequence(%p, %q)", "subsequence(%p, %q, %q)", "subsequence((%p, error()), %q, %q)"},
	'c': {"element e { %a }", "element p:e { %a }", `<e x="1">{attribute x { %a }, %a}</e>`, `<e x="1">{attribute y { %a }, %a}</e>`,
		`<e>{%t/@*, %a}</e>`, `<e x="1">{%t/@x, %a}</e>`, `<p:e xmlns:p="urn:p" y="{%a}">{%a}</p:e>`, "<e>{%a}</e>", `<e y="{%h}">{%a}</e>`},
	'w': {`concat(%z, "-", %z, "-", %z)`},
	'x': {"if (%b) then %k else %k", "try { %k } catch * { %k }", "some %v in %p satisfies %b", "every %v in %p satisfies %b",
		`for %v in %p group by %g := local-name(%V) order by %G return concat(%G, ":", count(%V))`,
		`for %v in %p group by %g := string(%V) order by %G return concat(%G, ":", count(%V))`,
		"for %v in %r return %k", "for %v at %i in %p where %b return %k", "for %v in %r let %v := %p return %k",
		"for %v in %p order by %a descending return %k", "for %v at %i in %r order by %a empty greatest return %k",
		"for %v in %r order by %h return %k", "for %v in %r where %h return %h",
		"for %i in %o where %b return %k", "for %i at %i in %o return %k",
		"for %v in %r return %V/(%W, %=)", // the same step twice: what common subexpression elimination may factor
		"for %v in %j return %c", "for %v at %i in %j where %b return <e n=\"{%I}\">{%a}</e>",
		"for %v in %j, %v in %j return %c", "for %v in %j for %v in %V//b where %b return %c",
		"for %v in %j order by %a descending return %c", "for %v in %j let %v := %h order by %a return %c"},
}

type gen struct {
	rng    *rand.Rand
	budget int  // compound productions left to generate
	focus  bool // "." is a node (not in function bodies)
	vars   []variable
	nvar   int
	funcs  int      // local:f0 … declared so far
	recent []shared // primaries generated so far, to repeat
}

type variable struct {
	name string
	kind byte
}

// shared is a generated primary and how many variables were in scope.
type shared struct {
	kind  byte
	s     string
	scope int
}

func (g *gen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }
func (g *gen) chance(n int) bool        { return g.rng.Intn(n) == 0 }
func (g *gen) operand() byte            { return "nsbp"[g.rng.Intn(4)] }

// ---- documents ----

var texts = []string{"1", "2", "3", "10", "-1", "2.5", "x", "a b", "x&amp;y", "1e1"}

// document writes a root r binding p and q to one URI, with a wide top
// level: siblings to select by position.
func (g *gen) document() string {
	var b strings.Builder
	b.WriteString(`<r xmlns:p="urn:p" xmlns:q="urn:p" x="0">`)
	g.content(&b, 1, false)
	g.content(&b, 1, false)
	b.WriteString("</r>")
	return b.String()
}

// content writes one to four children; an element repeats its preceding
// sibling's name half the time, so positions select among namesakes. An
// element is sometimes prefixed, sometimes the top of a subtree in the
// default namespace urn:d.
func (g *gen) content(b *strings.Builder, depth int, inDefault bool) {
	name := ""
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		switch g.rng.Intn(9) {
		case 0, 1:
			b.WriteString(g.pick(texts...))
		case 2:
			b.WriteString("\n  ")
		case 3:
			b.WriteString(g.pick("<!--c-->", "<?pi d?>"))
		default:
			if name == "" || g.chance(2) {
				name = g.pick("a", "b", "c")
			}
			tag, decl, inner := name, "", inDefault
			switch g.rng.Intn(8) {
			case 0, 1:
				tag = g.pick("p:", "q:") + name
			case 2:
				if !inDefault {
					decl, inner = ` xmlns="urn:d"`, true
				}
			}
			b.WriteString("<" + tag + decl)
			for _, a := range []string{"x", "y", "p:x"} {
				if g.chance(3) {
					fmt.Fprintf(b, ` %s="%s"`, a, g.pick(texts...))
				}
			}
			if depth >= 4 || g.chance(4) {
				b.WriteString("/>")
				continue
			}
			b.WriteString(">")
			g.content(b, depth+1, inner)
			b.WriteString("</" + tag + ">")
		}
	}
}

// ---- queries ----

// query writes a prolog and a body. A third of the bodies take a streaming
// shape; those declare no function, which the streaming evaluator refuses.
func (g *gen) query() string {
	var b strings.Builder
	b.WriteString("declare namespace p = \"urn:p\";\ndeclare namespace d = \"urn:d\";\n")
	stream := g.chance(3)
	for !stream && g.chance(2) && g.funcs < 2 {
		g.budget, g.vars = 3, []variable{{"$x", g.operand()}}
		fmt.Fprintf(&b, "declare function local:f%d($x) { %s };\n", g.funcs, g.expr('a', top))
		g.funcs++
	}
	g.budget, g.focus, g.vars, g.recent = 4+g.rng.Intn(8), true, nil, nil
	if stream {
		b.WriteString(g.expand(g.pick("%r", "%r/%f", "count(%r)", "exists(%r)", `string-join(%r, ",")`, "for %v in %r where %b return %a"), 'a'))
	} else {
		b.WriteString(g.expr('a', top))
	}
	return b.String()
}

// expr generates an expression of kind k that binds at least as tightly as
// levels[min]: an operator of a level from min on, an ExprSingle (in
// parentheses unless min is top), or a primary.
func (g *gen) expr(k byte, min int) string {
	if g.budget <= 0 || g.chance(3) {
		return g.primary(k)
	}
	g.budget--
	if g.chance(4) {
		s := g.expand(g.production('x'), k)
		if min != top {
			s = "(" + s + ")"
		}
		return s
	}
	var cands []int
	for i := max(min, 0); i < len(levels); i++ {
		if k == 'a' || levels[i].out == k {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return g.primary(k)
	}
	i := cands[g.rng.Intn(len(cands))]
	lv, in := levels[i], levels[i].in
	if in == 'a' {
		in = g.operand()
	}
	op := g.pick(lv.ops...)
	switch {
	case i == unary:
		return op + g.expr('n', unary)
	case lv.types != nil:
		return g.expr(in, i+1) + " " + op + " " + g.pick(lv.types...)
	}
	left := i + 1
	if lv.chain {
		left = i
	}
	l, r := g.expr(in, left), ""
	switch {
	case op == "idiv" && g.chance(3):
		r = "0"
	case g.chance(4):
		r = l // a repeated operand, what common subexpression elimination sees
	default:
		r = g.expr(in, i+1)
	}
	return l + " " + op + " " + r
}

// primary generates an operand that needs no parentheses at any level: a
// variable, a production, or now and then one generated before, a common
// subexpression.
func (g *gen) primary(k byte) string {
	if k == 'a' {
		k = g.operand()
	}
	var rs []string
	for _, r := range g.recent {
		if r.kind == k {
			rs = append(rs, r.s)
		}
	}
	if len(rs) > 0 && g.chance(5) {
		return g.pick(rs...)
	}
	for _, v := range g.vars {
		if v.kind == k && g.chance(3) {
			return v.name
		}
	}
	s := g.expand(g.production(k), k)
	if strings.ContainsAny(s, "(/") && !strings.HasPrefix(s, "<") {
		g.recent = append(g.recent, shared{k, s, len(g.vars)})
	}
	return s
}

// production picks a production of kind k: one that needs a focus only
// where there is one, and a leaf once the budget is spent if k has leaves.
func (g *gen) production(k byte) string {
	for {
		p := g.pick(grammar[k]...)
		leaf := !strings.Contains(p, "%")
		if (g.focus || p[0] != '.') && (leaf || g.budget > 0 || strings.IndexByte("xcw", k) >= 0) {
			if !leaf {
				g.budget--
			}
			return strings.TrimPrefix(p, ".")
		}
	}
}

// expand fills the holes of production p, generated for kind k. The
// variables it binds go out of scope after it, and so do the primaries
// that read them.
func (g *gen) expand(p string, k byte) string {
	scope, focus := len(g.vars), g.focus
	defer func() {
		g.vars, g.focus = g.vars[:scope], focus
		g.recent = slices.DeleteFunc(g.recent, func(r shared) bool { return r.scope > scope })
	}()
	var b strings.Builder
	var bound []variable
	last := ""
	for i := 0; i < len(p); i++ {
		if p[i] != '%' {
			b.WriteByte(p[i])
			continue
		}
		i++
		h := p[i]
		if h >= 'A' && h <= 'Z' && !strings.ContainsRune("VIG", rune(h)) {
			g.focus, h = true, h+'a'-'A'
		}
		switch h {
		case 'k':
			last = g.expr(k, top)
		case 'n', 's', 'b', 'p', 'a':
			last = g.expr(h, top)
		case 'c', 'w':
			last = g.expand(g.production(h), k)
		case 'v', 'i', 'g': // in scope after the next hole, its value
			g.nvar++
			last = fmt.Sprintf("$v%d", g.nvar)
			bound = append(bound, variable{last, map[byte]byte{'v': 'p', 'i': 'n', 'g': 's'}[h]})
			b.WriteString(last)
			continue
		case 'o':
			last = "1 to " + g.pick("0", "3", "5")
		case 'V', 'I', 'G':
			last = g.lastVar(map[byte]byte{'V': 'p', 'I': 'n', 'G': 's'}[h])
		case 'f':
			last = g.pick(focusBuiltins...) + "(" + g.path() + ")"
			if g.focus && g.chance(2) {
				last = g.pick(focusBuiltins...) + "()"
			}
		case 'z':
			last = g.pick(focusBuiltins...) + "()"
		case 'l':
			last = "abs"
			if g.funcs > 0 {
				last = fmt.Sprintf("local:f%d", g.rng.Intn(g.funcs))
			}
		case 't':
			last = g.path()
		case 'h':
			last = g.chain()
		case 'r':
			last = g.spine()
		case 'j':
			last = g.join()
		case 'q':
			last = g.bound()
		case 'y':
			last = g.boundPredicate()
		}
		b.WriteString(last)
		g.focus = focus
		g.vars, bound = append(g.vars, bound...), nil
	}
	return b.String()
}

// focusBuiltins are the built-ins whose omitted argument is the focus.
var focusBuiltins = func() (names []string) {
	for f := range functions.Each() {
		if f.Props.UsesContext && f.MinArgs == 0 {
			names = append(names, f.Name)
		}
	}
	return names
}()

// lastVar names the innermost variable of kind k in scope.
func (g *gen) lastVar(k byte) string {
	for i := len(g.vars) - 1; i >= 0; i-- {
		if g.vars[i].kind == k {
			return g.vars[i].name
		}
	}
	return "()"
}

// Child and descendant steps to named elements come more often: most steps
// should select something.
var (
	axes  = []string{"", "", "", "child::", "descendant::", "descendant::", "self::", "descendant-or-self::", "parent::", "ancestor::", "ancestor-or-self::", "following-sibling::", "preceding-sibling::"}
	tests = []string{"a", "b", "c", "a", "b", "c", "*", "*", "p:a", "p:*", "d:b", "*:c", "node()", "text()", "comment()", "processing-instruction()", "element()", "element(b)"}
	preds = []string{"[1]", "[2]", "[last()]", "[last() - 1]", "[position() = 2]", "[position() lt 3]", "[%N]", "[%P]", "[%B]", "[%B]", "[%H]", "[%H = (%A)]", "%y", "%y"}
)

// path generates a path from the root, a node variable or the focus: one to
// three steps, each with up to two predicates, and now and then a last step
// that is a focus built-in or an expression, once or twice.
func (g *gen) path() string {
	starts := []string{"/", "/", "//", "/r/"}
	if g.focus {
		starts = append(starts, "", "./")
	}
	for _, v := range g.vars {
		if v.kind == 'p' {
			starts = append(starts, v.name+"/", v.name+"/")
		}
	}
	s := g.pick(starts...)
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		if s != "" && !strings.HasSuffix(s, "/") {
			s += g.pick("/", "//")
		}
		switch step := g.pick(axes...) + g.pick(tests...); g.rng.Intn(10) {
		case 0:
			s += "@" + g.pick("x", "y", "p:x", "*")
		case 1:
			s += ".."
		default:
			s += step
		}
		for m := g.rng.Intn(3); m > 0 && g.budget > 0; m-- {
			g.budget--
			s += g.expand(g.pick(preds...), 'a')
		}
	}
	if g.chance(3) {
		s += g.expand(g.pick("/%F", "/(%A)", "/(%A, %=)"), 'a')
	}
	return s
}

// chain generates a step chain, the shape the runtime walks on one cursor:
// predicate-free child, attribute and self steps from the root, the focus
// or a node variable, now and then after a leading "//".
func (g *gen) chain() string {
	starts := []string{"/", "//", "/r/"}
	if g.focus {
		starts = append(starts, "", "./")
	}
	for _, v := range g.vars {
		if v.kind == 'p' {
			starts = append(starts, v.name+"/")
		}
	}
	s := g.pick(starts...)
	for n := g.rng.Intn(3); n >= 0; n-- {
		if s != "" && !strings.HasSuffix(s, "/") {
			s += "/"
		}
		s += g.pick("a", "b", "c", "a", "b", "*", "p:a", "d:b", "*:c", "self::node()", "node()", "text()", "@x", "@*", "@p:x")
	}
	return s
}

// spine generates forward element steps from the root, some with a
// predicate, positional ones among them.
func (g *gen) spine() string {
	s := "/r"
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		s += g.pick("/", "/", "//") + g.pick("a", "b", "c", "*", "*", "*", "a", "b", "p:a", "d:b")
		switch g.rng.Intn(4) {
		case 0:
			s += g.pick("[position() = 2]", "[position() lt 3]", "[position() gt 1]", g.boundPredicate())
		case 1:
			s += g.expand(g.pick("[1]", "[2]", "[last()]", "[@x]", `[@x = "1"]`, "[b]", `[. = "1"]`, "[string-length() gt 1]", "[%B]"), 'a')
		}
	}
	return s
}

// boundPredicate generates a positional bound, what the optimizer may
// turn into a window of its input: position() compared with a bound by
// any operator, on either side, a range of positions, or two bounds
// joined by and.
func (g *gen) boundPredicate() string {
	op := g.pick("le", "lt", "=", "eq", "ge", "gt", "<=", "<", ">=", ">", "ne")
	switch g.rng.Intn(4) {
	case 0:
		return "[position() " + op + " " + g.bound() + "]"
	case 1:
		return "[" + g.bound() + " " + op + " position()]"
	case 2:
		return "[position() = (" + g.pick("1", "2", g.bound()) + " to " + g.pick("2", "3", g.bound()) + ")]"
	}
	return "[position() ge " + g.bound() + " and position() le " + g.bound() + "]"
}

// bound generates the bound of a positional predicate or fn:subsequence:
// numbers around the first positions, a fraction, a double, NaN and INF, a
// string (a type error to compare), a count, a position relative to
// last() and a number variable in scope.
func (g *gen) bound() string {
	bs := []string{"0", "-1", "2.5", "1e0", `xs:double("NaN")`, `xs:double("INF")`, `"3"`, "count(%p)"}
	if g.focus {
		bs = append(bs, "(last() - 1)")
	}
	for _, v := range g.vars {
		if v.kind == 'n' {
			bs = append(bs, v.name)
		}
	}
	return g.expand(g.pick(bs...), 'n')
}

// join generates a join path: plain element names from the root, with a
// descendant edge after the first name, the shape the runtime may run as
// one holistic path join.
func (g *gen) join() string {
	names := []string{"a", "b", "c", "p:a", "d:b"}
	s := g.pick("/", "//", "/r/", "/r//") + g.pick(names...) + "//" + g.pick(names...)
	if g.chance(2) {
		s += g.pick("/", "//") + g.pick(names...)
	}
	return s
}
