// Package expr defines the internal expression tree XQuery queries compile
// to — the paper's "expression tree (for optimization)" representation with
// an (almost) 1-1 mapping to surface expressions, plus the static analyses
// the optimizer consumes. Source positions are preserved on every node
// ("we preserve the lineage through all those representations").
package expr

import (
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Pos is a source position (1-based).
type Pos struct {
	Line int
	Col  int
}

// Expr is an expression-tree node.
type Expr interface {
	// Span returns the source position of the expression.
	Span() Pos
	// Children returns the direct sub-expressions (shared slice must not be
	// mutated).
	Children() []Expr
	// WithChildren returns a copy of the node with the sub-expressions
	// replaced (same length/order as Children).
	WithChildren([]Expr) Expr
}

type Base struct{ P Pos }

func (b Base) Span() Pos { return b.P }

// ---- leaf expressions ----

// Literal is a constant atomic value.
type Literal struct {
	Base
	Val xdm.Atomic
}

// NewLiteral creates a literal at a position.
func NewLiteral(p Pos, v xdm.Atomic) *Literal { return &Literal{Base{p}, v} }

func (e *Literal) Children() []Expr         { return nil }
func (e *Literal) WithChildren([]Expr) Expr { c := *e; return &c }

// VarRef references a variable in scope ($x).
type VarRef struct {
	Base
	Name xdm.QName
}

func (e *VarRef) Children() []Expr         { return nil }
func (e *VarRef) WithChildren([]Expr) Expr { c := *e; return &c }

// ContextItem is ".".
type ContextItem struct{ Base }

func (e *ContextItem) Children() []Expr         { return nil }
func (e *ContextItem) WithChildren([]Expr) Expr { c := *e; return &c }

// Root is the leading "/" of an absolute path: the root of the context
// item's tree.
type Root struct{ Base }

func (e *Root) Children() []Expr         { return nil }
func (e *Root) WithChildren([]Expr) Expr { c := *e; return &c }

// ---- composition ----

// Seq is the comma operator: concatenation with flattening.
type Seq struct {
	Base
	Items []Expr
}

func (e *Seq) Children() []Expr { return e.Items }
func (e *Seq) WithChildren(c []Expr) Expr {
	n := *e
	n.Items = c
	return &n
}

// Range is "lo to hi".
type Range struct {
	Base
	Lo, Hi Expr
}

func (e *Range) Children() []Expr { return []Expr{e.Lo, e.Hi} }
func (e *Range) WithChildren(c []Expr) Expr {
	n := *e
	n.Lo, n.Hi = c[0], c[1]
	return &n
}

// ---- arithmetic / logic / comparison ----

// Arith is a binary arithmetic expression.
type Arith struct {
	Base
	Op   xdm.ArithOp
	L, R Expr
}

func (e *Arith) Children() []Expr { return []Expr{e.L, e.R} }
func (e *Arith) WithChildren(c []Expr) Expr {
	n := *e
	n.L, n.R = c[0], c[1]
	return &n
}

// Neg is unary minus (unary plus is dropped at parse).
type Neg struct {
	Base
	X Expr
}

func (e *Neg) Children() []Expr { return []Expr{e.X} }
func (e *Neg) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// CompKind distinguishes the three comparison families.
type CompKind uint8

const (
	CompValue   CompKind = iota // eq ne lt le gt ge
	CompGeneral                 // = != < <= > >=
)

// Compare is a value or general comparison.
type Compare struct {
	Base
	Kind CompKind
	Op   xdm.CompOp
	L, R Expr
}

func (e *Compare) Children() []Expr { return []Expr{e.L, e.R} }
func (e *Compare) WithChildren(c []Expr) Expr {
	n := *e
	n.L, n.R = c[0], c[1]
	return &n
}

// NodeCompOp is the operator of a node comparison.
type NodeCompOp uint8

const (
	NodeIs       NodeCompOp = iota // is
	NodePrecedes                   // <<
	NodeFollows                    // >>
)

// NodeCompare is a node identity/order comparison.
type NodeCompare struct {
	Base
	Op   NodeCompOp
	L, R Expr
}

func (e *NodeCompare) Children() []Expr { return []Expr{e.L, e.R} }
func (e *NodeCompare) WithChildren(c []Expr) Expr {
	n := *e
	n.L, n.R = c[0], c[1]
	return &n
}

// Logic is "and"/"or" (And true); two-valued, short-circuiting,
// non-deterministic per the paper.
type Logic struct {
	Base
	And  bool
	L, R Expr
}

func (e *Logic) Children() []Expr { return []Expr{e.L, e.R} }
func (e *Logic) WithChildren(c []Expr) Expr {
	n := *e
	n.L, n.R = c[0], c[1]
	return &n
}

// ---- paths ----

// Axis enumerates the supported axes.
type Axis uint8

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisAttribute
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
)

var axisNames = [...]string{
	"child", "descendant", "descendant-or-self", "self", "attribute",
	"parent", "ancestor", "ancestor-or-self", "following-sibling",
	"preceding-sibling",
}

func (a Axis) String() string { return axisNames[a] }

// Principal returns the axis's principal node kind.
func (a Axis) Principal() xdm.NodeKind {
	if a == AxisAttribute {
		return xdm.AttributeNode
	}
	return xdm.ElementNode
}

// Step is one axis step, evaluated against the context item.
type Step struct {
	Base
	Axis Axis
	Test xtypes.NodeTest
}

func (e *Step) Children() []Expr         { return nil }
func (e *Step) WithChildren([]Expr) Expr { c := *e; return &c }

// Path is E1/E2: evaluate E1, bind "." to each resulting node, evaluate E2,
// concatenate, then (unless elided by analysis) sort by document order and
// remove duplicates.
type Path struct {
	Base
	L, R Expr
	// NoReorder is set by the optimizer when the result is statically known
	// to be in document order and duplicate-free (experiment E8).
	NoReorder bool
}

func (e *Path) Children() []Expr { return []Expr{e.L, e.R} }
func (e *Path) WithChildren(c []Expr) Expr {
	n := *e
	n.L, n.R = c[0], c[1]
	return &n
}

// Filter is E[pred...]: positional or boolean predicates.
type Filter struct {
	Base
	In    Expr
	Preds []Expr
}

func (e *Filter) Children() []Expr {
	out := make([]Expr, 0, 1+len(e.Preds))
	out = append(out, e.In)
	return append(out, e.Preds...)
}

func (e *Filter) WithChildren(c []Expr) Expr {
	n := *e
	n.In = c[0]
	n.Preds = c[1:]
	return &n
}

// ---- FLWOR and binding forms ----

// ClauseKind distinguishes for/let clauses.
type ClauseKind uint8

const (
	ForClause ClauseKind = iota
	LetClause
)

// Clause is one for/let clause of a FLWOR.
type Clause struct {
	Kind   ClauseKind
	Var    xdm.QName
	PosVar xdm.QName // "at $i" for for-clauses; zero if absent
	Type   *xtypes.SequenceType
	In     Expr
}

// OrderSpec is one order-by key.
type OrderSpec struct {
	Key        Expr
	Descending bool
	EmptyLeast bool
}

// GroupSpec is one "group by $var := key" specification — the grouping
// extension the paper lists under "Missing functionalities" (and the
// "Grouping in XML" research line), with XQuery 3.0 surface syntax.
type GroupSpec struct {
	Var xdm.QName
	Key Expr
}

// Flwor is the full FLWOR expression. Where and OrderBy may be nil/empty;
// normalization rewrites Where into conditionals but the clause is kept in
// the tree so the optimizer can reason about it directly.
type Flwor struct {
	Base
	Clauses []Clause
	Where   Expr // nil if absent
	// Group, when non-empty, groups the binding tuples by the key values;
	// clause variables rebind to the concatenation of their group's values.
	Group  []GroupSpec
	Order  []OrderSpec
	Stable bool
	Ret    Expr
}

func (e *Flwor) Children() []Expr {
	out := make([]Expr, 0, len(e.Clauses)+len(e.Group)+len(e.Order)+2)
	for i := range e.Clauses {
		out = append(out, e.Clauses[i].In)
	}
	if e.Where != nil {
		out = append(out, e.Where)
	}
	for i := range e.Group {
		out = append(out, e.Group[i].Key)
	}
	for i := range e.Order {
		out = append(out, e.Order[i].Key)
	}
	out = append(out, e.Ret)
	return out
}

func (e *Flwor) WithChildren(c []Expr) Expr {
	n := *e
	n.Clauses = append([]Clause(nil), e.Clauses...)
	i := 0
	for j := range n.Clauses {
		n.Clauses[j].In = c[i]
		i++
	}
	if e.Where != nil {
		n.Where = c[i]
		i++
	}
	n.Group = append([]GroupSpec(nil), e.Group...)
	for j := range n.Group {
		n.Group[j].Key = c[i]
		i++
	}
	n.Order = append([]OrderSpec(nil), e.Order...)
	for j := range n.Order {
		n.Order[j].Key = c[i]
		i++
	}
	n.Ret = c[i]
	return &n
}

// TryCatch is "try { E } catch * { F }": the error-handling mechanism the
// paper lists as missing from XQuery 1.0 (XQuery 3.0 surface syntax,
// wildcard catch only). Errors raised while evaluating E — including
// lazily, so the try clause materializes — transfer control to F.
type TryCatch struct {
	Base
	Try   Expr
	Catch Expr
}

func (e *TryCatch) Children() []Expr { return []Expr{e.Try, e.Catch} }
func (e *TryCatch) WithChildren(c []Expr) Expr {
	n := *e
	n.Try, n.Catch = c[0], c[1]
	return &n
}

// QBind is one binding of a quantified expression.
type QBind struct {
	Var xdm.QName
	In  Expr
}

// Quantified is some/every ... satisfies.
type Quantified struct {
	Base
	Every     bool
	Binds     []QBind
	Satisfies Expr
}

func (e *Quantified) Children() []Expr {
	var out []Expr
	for i := range e.Binds {
		out = append(out, e.Binds[i].In)
	}
	return append(out, e.Satisfies)
}

func (e *Quantified) WithChildren(c []Expr) Expr {
	n := *e
	n.Binds = append([]QBind(nil), e.Binds...)
	for j := range n.Binds {
		n.Binds[j].In = c[j]
	}
	n.Satisfies = c[len(c)-1]
	return &n
}

// ---- conditionals and type operators ----

// If is if (cond) then ... else ....
type If struct {
	Base
	Cond, Then, Else Expr
}

func (e *If) Children() []Expr { return []Expr{e.Cond, e.Then, e.Else} }
func (e *If) WithChildren(c []Expr) Expr {
	n := *e
	n.Cond, n.Then, n.Else = c[0], c[1], c[2]
	return &n
}

// TSCase is one typeswitch case.
type TSCase struct {
	Type xtypes.SequenceType
	Var  xdm.QName // optional binding
	Body Expr
}

// Typeswitch branches on the dynamic type of its input.
type Typeswitch struct {
	Base
	Input      Expr
	Cases      []TSCase
	DefaultVar xdm.QName
	Default    Expr
}

func (e *Typeswitch) Children() []Expr {
	out := []Expr{e.Input}
	for i := range e.Cases {
		out = append(out, e.Cases[i].Body)
	}
	return append(out, e.Default)
}

func (e *Typeswitch) WithChildren(c []Expr) Expr {
	n := *e
	n.Input = c[0]
	n.Cases = append([]TSCase(nil), e.Cases...)
	for j := range n.Cases {
		n.Cases[j].Body = c[1+j]
	}
	n.Default = c[len(c)-1]
	return &n
}

// InstanceOf is "E instance of T".
type InstanceOf struct {
	Base
	X Expr
	T xtypes.SequenceType
}

func (e *InstanceOf) Children() []Expr { return []Expr{e.X} }
func (e *InstanceOf) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// Cast is "E cast as T" (Castable true for "castable as").
type Cast struct {
	Base
	X        Expr
	T        xdm.TypeCode
	Optional bool // "?": allow the empty sequence
	Castable bool
}

func (e *Cast) Children() []Expr { return []Expr{e.X} }
func (e *Cast) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// Treat is "E treat as T": a runtime-checked down-cast.
type Treat struct {
	Base
	X Expr
	T xtypes.SequenceType
}

func (e *Treat) Children() []Expr { return []Expr{e.X} }
func (e *Treat) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// ---- set operations ----

// SetOp is union/intersect/except over node sequences.
type SetOpKind uint8

const (
	SetUnion SetOpKind = iota
	SetIntersect
	SetExcept
)

var setOpNames = [...]string{"union", "intersect", "except"}

func (k SetOpKind) String() string { return setOpNames[k] }

// SetOp combines two node sequences, deduplicating and restoring document
// order.
type SetOp struct {
	Base
	Op   SetOpKind
	L, R Expr
}

func (e *SetOp) Children() []Expr { return []Expr{e.L, e.R} }
func (e *SetOp) WithChildren(c []Expr) Expr {
	n := *e
	n.L, n.R = c[0], c[1]
	return &n
}

// ---- function calls ----

// Call is a function call, resolved during compilation against the built-in
// library or the query's declared functions.
type Call struct {
	Base
	Name xdm.QName
	Args []Expr
}

func (e *Call) Children() []Expr { return e.Args }
func (e *Call) WithChildren(c []Expr) Expr {
	n := *e
	n.Args = c
	return &n
}

// ---- constructors ----

// DirAttr is one attribute of a direct element constructor; its value is a
// concatenation of literal strings and enclosed expressions.
type DirAttr struct {
	Name  xdm.QName
	Parts []Expr // Literal strings and enclosed expressions
}

// ElemConstructor constructs an element. Direct constructors have a fixed
// Name; computed constructors evaluate NameExpr. Content expressions are
// evaluated and their results copied per the constructor rules. The paper
// flags node construction as THE side-effecting operation: each evaluation
// creates nodes with new identities, which restricts rewriting.
type ElemConstructor struct {
	Base
	Name     xdm.QName
	NameExpr Expr // nil for direct constructors
	Attrs    []DirAttr
	NS       []NSBinding
	Content  []Expr
	// NoNodeIDs is set by the optimizer when the constructed tree never
	// needs node identities (it is serialized immediately) — experiment E7.
	NoNodeIDs bool
}

// NSBinding is a literal namespace declaration on a direct constructor.
type NSBinding struct {
	Prefix string
	URI    string
}

func (e *ElemConstructor) Children() []Expr {
	var out []Expr
	if e.NameExpr != nil {
		out = append(out, e.NameExpr)
	}
	for i := range e.Attrs {
		out = append(out, e.Attrs[i].Parts...)
	}
	return append(out, e.Content...)
}

func (e *ElemConstructor) WithChildren(c []Expr) Expr {
	n := *e
	i := 0
	if e.NameExpr != nil {
		n.NameExpr = c[i]
		i++
	}
	n.Attrs = append([]DirAttr(nil), e.Attrs...)
	for j := range n.Attrs {
		parts := make([]Expr, len(n.Attrs[j].Parts))
		for k := range parts {
			parts[k] = c[i]
			i++
		}
		n.Attrs[j].Parts = parts
	}
	n.Content = c[i:]
	return &n
}

// AttrConstructor is a computed attribute constructor.
type AttrConstructor struct {
	Base
	Name     xdm.QName
	NameExpr Expr // nil if Name fixed
	Value    []Expr
}

func (e *AttrConstructor) Children() []Expr {
	var out []Expr
	if e.NameExpr != nil {
		out = append(out, e.NameExpr)
	}
	return append(out, e.Value...)
}

func (e *AttrConstructor) WithChildren(c []Expr) Expr {
	n := *e
	i := 0
	if e.NameExpr != nil {
		n.NameExpr = c[i]
		i++
	}
	n.Value = c[i:]
	return &n
}

// TextConstructor is text { E }.
type TextConstructor struct {
	Base
	X Expr
}

func (e *TextConstructor) Children() []Expr { return []Expr{e.X} }
func (e *TextConstructor) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// CommentConstructor constructs a comment node.
type CommentConstructor struct {
	Base
	X Expr
}

func (e *CommentConstructor) Children() []Expr { return []Expr{e.X} }
func (e *CommentConstructor) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// PIConstructor constructs a processing instruction.
type PIConstructor struct {
	Base
	Target string
	X      Expr
}

func (e *PIConstructor) Children() []Expr { return []Expr{e.X} }
func (e *PIConstructor) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// DocConstructor is document { E }.
type DocConstructor struct {
	Base
	X Expr
}

func (e *DocConstructor) Children() []Expr { return []Expr{e.X} }
func (e *DocConstructor) WithChildren(c []Expr) Expr {
	n := *e
	n.X = c[0]
	return &n
}

// ---- query / prolog ----

// Param is a declared function parameter.
type Param struct {
	Name xdm.QName
	Type *xtypes.SequenceType
}

// FuncDecl is a user-declared function.
type FuncDecl struct {
	Name   xdm.QName
	Params []Param
	Ret    *xtypes.SequenceType
	Body   Expr
}

// VarDecl is a prolog variable: either External or with an initializer.
type VarDecl struct {
	Name     xdm.QName
	Type     *xtypes.SequenceType
	Init     Expr // nil if external
	External bool
}

// Query is a parsed query: prolog plus body.
type Query struct {
	// Namespaces declared in the prolog (prefix -> URI).
	Namespaces map[string]string
	// DefaultElemNS / DefaultFuncNS from the prolog.
	DefaultElemNS string
	DefaultFuncNS string
	Vars          []VarDecl
	Funcs         []FuncDecl
	Body          Expr
}
