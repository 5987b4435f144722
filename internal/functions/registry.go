// Package functions implements the F&O built-in function library. Per the
// paper, "this information is given declaratively, not hard coded in the
// query processor": each built-in carries one Properties record, which the
// analyses read instead of lists of names. The record says what a call reads
// (UsesContext, Args), what it reaches (Reach), what it returns (Returns),
// and whether it is Deterministic, CreatesNodes or CanRaiseError. Readers:
// expr.Infer (Returns), expr.Analysis (UsesContext, CreatesNodes),
// expr.Props (Reach), optimizer.ExtractPaths (UsesContext, Args, Reach),
// constant folding (Deterministic, UsesContext, CanRaiseError), the
// streamability check (UsesContext, Reach) and function memoization
// (Deterministic, CreatesNodes). fn:position and fn:last are not
// registered: the runtime compiles them itself.
package functions

import (
	"fmt"
	"iter"
	"maps"
	"slices"

	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Namespace is the namespace of the built-ins; an unprefixed call names it
// too.
const Namespace = "http://www.w3.org/2005/xpath-functions"

// Context is the slice of the dynamic context visible to built-ins. The
// runtime's evaluation frame implements it.
type Context interface {
	// ContextItem returns the current context item; the bool is false when
	// the context item is undefined.
	ContextItem() (xdm.Item, bool)
	// Position and Size return the focus position/size (1-based), valid
	// when a context item exists.
	Position() int64
	Size() (int64, error)
	// Doc resolves a document URI (fn:doc / the paper's document()).
	Doc(uri string) (xdm.Node, error)
	// Collection resolves a collection URI.
	Collection(uri string) (xdm.Sequence, error)
	// CurrentDateTime is the (stable) current dateTime of the evaluation.
	CurrentDateTime() xdm.Atomic
}

// Properties is the declarative semantic record of a built-in. Its zero
// value describes a function that atomizes its arguments, reaches nothing
// beyond them, returns item()*, and is neither deterministic nor known to
// be error-free.
type Properties struct {
	// CreatesNodes: the result can contain newly constructed nodes. The
	// optimizer's node-creation test (let folding, CSE) and the runtime's
	// memoization test read it.
	CreatesNodes bool
	// UsesContext: an omitted argument defaults to the focus, so a call
	// without arguments reads the context item. expr.Analysis,
	// optimizer.ExtractPaths and the streamability check read it.
	UsesContext bool
	// Deterministic: the same arguments give the same result, with no side
	// effect. Constant folding and function memoization read it.
	Deterministic bool
	// CanRaiseError: the call can raise a dynamic error on some input, so
	// constant folding leaves it to run time. (expr.Analysis keeps its own
	// list of error-free calls.)
	CanRaiseError bool
	// Args says how the call observes the nodes of each argument; positions
	// past its end are Atomized. optimizer.ExtractPaths reads it.
	Args []ArgUse
	// Reach says whether the result comes from anything beyond the
	// arguments' own subtrees. optimizer.ExtractPaths, the streamability
	// check and expr.Props read it.
	Reach Reach
	// Returns is the static result type expr.Infer gives a call. The zero
	// value means item()* (see ReturnType).
	Returns xtypes.SequenceType
}

// ArgUse is how a built-in observes the nodes of one argument.
type ArgUse uint8

const (
	// Atomized: the nodes are atomized, so their whole subtree is read. The
	// runtime hands such an argument over as the nodes' typed values.
	Atomized ArgUse = iota
	// Structure: only existence, count, identity, kind or name is read.
	Structure
	// PassedThrough: the items can reach the result unchanged.
	PassedThrough
	// CheckedThrough: as PassedThrough, and the call raises an error on
	// their number, so it reads them even when its result is dropped.
	CheckedThrough
	// Subtree: the whole subtree is read, as nodes (fn:deep-equal), so the
	// runtime may not atomize them first.
	Subtree
)

// Arg returns how argument i is observed.
func (p Properties) Arg(i int) ArgUse {
	if i < len(p.Args) {
		return p.Args[i]
	}
	return Atomized
}

// Reach is what a built-in's result depends on besides its arguments.
type Reach uint8

const (
	// ReachArgs: nothing; the result is made from the arguments.
	ReachArgs Reach = iota
	// ReachRoot: the result is a document root: of the argument's own tree
	// (fn:root) or of a document named by URI (fn:doc).
	ReachRoot
	// ReachOutside: the result depends on other documents or on properties
	// of the document outside the argument (fn:collection, fn:base-uri).
	ReachOutside
)

// ReturnType is the static result type of a call: Returns, or item()* when
// the record leaves it unset.
func (p Properties) ReturnType() xtypes.SequenceType {
	if p.Returns == (xtypes.SequenceType{}) {
		return xtypes.AnyItems
	}
	return p.Returns
}

// Return types of the record.
var (
	xsInteger = xtypes.AtomicOne(xdm.TInteger)
	xsBoolean = xtypes.AtomicOne(xdm.TBoolean)
	xsString  = xtypes.AtomicOne(xdm.TString)
)

// structure is the Args of a one-argument built-in that reads only the
// structure of its argument.
var structure = []ArgUse{Structure}

// Func is one built-in function (one arity range).
type Func struct {
	Name    string // local name in the fn namespace
	MinArgs int
	MaxArgs int // -1 for variadic (fn:concat)
	Props   Properties
	Call    func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error)
}

// registry maps local name -> Func.
var registry = map[string]*Func{}

func register(f *Func) {
	if _, dup := registry[f.Name]; dup {
		panic("functions: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// The namespaces of constructor functions: xs:T and xdt:T for an atomic
// type T.
const (
	xsNamespace  = "http://www.w3.org/2001/XMLSchema"
	xdtNamespace = "http://www.w3.org/2005/xpath-datatypes"
)

// Constructor returns the atomic type T of a constructor function xs:T or
// xdt:T, which casts its one argument as T?.
func Constructor(name xdm.QName) (xdm.TypeCode, bool) {
	switch name.Space {
	case xsNamespace:
		return xdm.TypeByName("xs:" + name.Local)
	case xdtNamespace:
		return xdm.TypeByName("xdt:" + name.Local)
	}
	return 0, false
}

// Resolves reports whether a call of name with nargs arguments, which no
// declared function takes, has a function to call: a constructor function
// with one argument, fn:position or fn:last with none (the runtime compiles
// those two itself), or a built-in of that arity. A call that has none is
// err:XPST0017. The static check and the runtime compiler both ask here.
func Resolves(name xdm.QName, nargs int) bool {
	if _, ok := Constructor(name); ok {
		return nargs == 1
	}
	if name.Space != Namespace && name.Space != "" {
		return false
	}
	if name.Local == "position" || name.Local == "last" {
		return nargs == 0
	}
	f, err := Lookup(name.Local, nargs)
	return f != nil && err == nil
}

// Lookup finds a built-in by local name (within the fn namespace) and
// checks the arity. A nil return with ok=false means unknown name.
func Lookup(local string, nargs int) (*Func, error) {
	f, ok := registry[local]
	if !ok {
		return nil, nil
	}
	if nargs < f.MinArgs || (f.MaxArgs >= 0 && nargs > f.MaxArgs) {
		return nil, fmt.Errorf("fn:%s expects %s, got %d arguments",
			local, arityString(f), nargs)
	}
	return f, nil
}

// Each yields every built-in, in name order.
func Each() iter.Seq[*Func] {
	return func(yield func(*Func) bool) {
		for _, name := range slices.Sorted(maps.Keys(registry)) {
			if !yield(registry[name]) {
				return
			}
		}
	}
}

func arityString(f *Func) string {
	if f.MaxArgs < 0 {
		return fmt.Sprintf("at least %d", f.MinArgs)
	}
	if f.MinArgs == f.MaxArgs {
		return fmt.Sprintf("%d", f.MinArgs)
	}
	return fmt.Sprintf("%d..%d", f.MinArgs, f.MaxArgs)
}

// ---- shared helpers ----

// errEmpty is returned where a required argument is an empty sequence.
func typeErr(format string, args ...any) error { return xdm.ErrType(format, args...) }

// oneAtomic atomizes a single-item argument; empty yields ok=false.
func oneAtomic(seq xdm.Sequence) (xdm.Atomic, bool, error) {
	switch len(seq) {
	case 0:
		return xdm.Atomic{}, false, nil
	case 1:
		return xdm.Atomize(seq[0]), true, nil
	default:
		return xdm.Atomic{}, false, typeErr("expected at most one item, got %d", len(seq))
	}
}

// oneString returns the string value of an optional single-item argument
// (empty sequence yields "").
func oneString(seq xdm.Sequence) (string, error) {
	a, ok, err := oneAtomic(seq)
	if err != nil || !ok {
		return "", err
	}
	return a.Lexical(), nil
}

// oneNode returns a single node argument; empty yields nil.
func oneNode(seq xdm.Sequence) (xdm.Node, error) {
	switch len(seq) {
	case 0:
		return nil, nil
	case 1:
		n, ok := seq[0].(xdm.Node)
		if !ok {
			return nil, typeErr("expected a node")
		}
		return n, nil
	default:
		return nil, typeErr("expected at most one node, got %d items", len(seq))
	}
}

// numericArg casts an optional single atomic to double for numeric
// built-ins, reporting presence.
func numericArg(seq xdm.Sequence) (xdm.Atomic, bool, error) {
	a, ok, err := oneAtomic(seq)
	if err != nil || !ok {
		return xdm.Atomic{}, ok, err
	}
	a, err = numericAtom(a)
	return a, err == nil, err
}

// numericAtom converts an atomized argument to a number: an untyped atomic
// is cast to xs:double, any other type but a numeric one is a type error.
func numericAtom(a xdm.Atomic) (xdm.Atomic, error) {
	switch {
	case a.T == xdm.TUntyped:
		return xdm.Cast(a, xdm.TDouble)
	case !a.T.IsNumeric():
		return xdm.Atomic{}, typeErr("expected a numeric value, got %s", a.T)
	}
	return a, nil
}

func singleton(a xdm.Atomic) xdm.Sequence { return xdm.Sequence{a} }

var emptySeq = xdm.Sequence{}
