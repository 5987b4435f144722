// Package xtypes implements the XQuery sequence-type system used by
// `instance of`, `typeswitch`, `cast`/`castable`/`treat`, function
// signatures, and node tests in path steps: item types with occurrence
// indicators, kind tests, and the subtype/matching relations.
package xtypes

import (
	"strings"

	"xqgo/internal/xdm"
)

// Occurrence is the cardinality indicator of a sequence type.
type Occurrence uint8

const (
	OccOne   Occurrence = iota // exactly one
	OccOpt                     // ? zero or one
	OccStar                    // * zero or more
	OccPlus                    // + one or more
	OccEmpty                   // empty-sequence()
)

func (o Occurrence) String() string {
	switch o {
	case OccOpt:
		return "?"
	case OccStar:
		return "*"
	case OccPlus:
		return "+"
	default:
		return ""
	}
}

// ItemKind discriminates the item-type alternatives.
type ItemKind uint8

const (
	KAnyItem   ItemKind = iota // item()
	KAtomic                    // a named atomic type
	KAnyNode                   // node()
	KDocument                  // document-node()
	KElement                   // element() / element(name)
	KAttribute                 // attribute() / attribute(name)
	KText                      // text()
	KComment                   // comment()
	KPI                        // processing-instruction() / ...(name)
)

// ItemType is one item type: an atomic type or a kind test.
type ItemType struct {
	Kind ItemKind
	// Atomic type for KAtomic.
	Type xdm.TypeCode
	// Name constraint for element/attribute/PI tests; zero means any name.
	Name    xdm.QName
	AnyName bool // explicit wildcard (element(*))
}

// SequenceType is an item type with an occurrence indicator.
type SequenceType struct {
	Occ  Occurrence
	Item ItemType
}

// Convenience constructors.

// AnyItems is item()*.
var AnyItems = SequenceType{Occ: OccStar, Item: ItemType{Kind: KAnyItem}}

// AtomicOne returns "T" as a sequence type.
func AtomicOne(t xdm.TypeCode) SequenceType {
	return SequenceType{Occ: OccOne, Item: ItemType{Kind: KAtomic, Type: t}}
}

// AtomicOpt returns "T?".
func AtomicOpt(t xdm.TypeCode) SequenceType {
	return SequenceType{Occ: OccOpt, Item: ItemType{Kind: KAtomic, Type: t}}
}

// AtomicStar returns "T*".
func AtomicStar(t xdm.TypeCode) SequenceType {
	return SequenceType{Occ: OccStar, Item: ItemType{Kind: KAtomic, Type: t}}
}

// NodeStar is node()*.
var NodeStar = SequenceType{Occ: OccStar, Item: ItemType{Kind: KAnyNode}}

// Empty is empty-sequence().
var Empty = SequenceType{Occ: OccEmpty, Item: ItemType{Kind: KAnyItem}}

// String renders the type in XQuery syntax.
func (s SequenceType) String() string {
	if s.Occ == OccEmpty {
		return "empty-sequence()"
	}
	return s.Item.String() + s.Occ.String()
}

// String renders the item type in XQuery syntax.
func (t ItemType) String() string {
	switch t.Kind {
	case KAnyItem:
		return "item()"
	case KAtomic:
		return t.Type.String()
	case KAnyNode:
		return "node()"
	case KDocument:
		return "document-node()"
	case KElement:
		return kindTestString("element", t)
	case KAttribute:
		return kindTestString("attribute", t)
	case KText:
		return "text()"
	case KComment:
		return "comment()"
	case KPI:
		return kindTestString("processing-instruction", t)
	default:
		return "item()"
	}
}

func kindTestString(kw string, t ItemType) string {
	var b strings.Builder
	b.WriteString(kw)
	b.WriteByte('(')
	if !t.AnyName && !t.Name.IsZero() {
		b.WriteString(t.Name.String())
	}
	b.WriteByte(')')
	return b.String()
}

// MatchesItem reports whether a single item matches the item type.
func (t ItemType) MatchesItem(it xdm.Item) bool {
	switch t.Kind {
	case KAnyItem:
		return true
	case KAtomic:
		a, ok := it.(xdm.Atomic)
		return ok && a.T.Derives(t.Type)
	}
	n, ok := it.(xdm.Node)
	if !ok {
		return false
	}
	switch t.Kind {
	case KAnyNode:
		return true
	case KDocument:
		return n.Kind() == xdm.DocumentNode
	case KElement:
		return n.Kind() == xdm.ElementNode && t.nameOK(n)
	case KAttribute:
		return n.Kind() == xdm.AttributeNode && t.nameOK(n)
	case KText:
		return n.Kind() == xdm.TextNode
	case KComment:
		return n.Kind() == xdm.CommentNode
	case KPI:
		return n.Kind() == xdm.PINode && t.nameOK(n)
	default:
		return false
	}
}

func (t ItemType) nameOK(n xdm.Node) bool {
	if t.AnyName || t.Name.IsZero() {
		return true
	}
	return t.Name.Equal(n.NodeName())
}

// Matches reports whether a materialized sequence matches the sequence type.
func (s SequenceType) Matches(seq xdm.Sequence) bool {
	switch s.Occ {
	case OccEmpty:
		return len(seq) == 0
	case OccOne:
		if len(seq) != 1 {
			return false
		}
	case OccOpt:
		if len(seq) > 1 {
			return false
		}
	case OccPlus:
		if len(seq) == 0 {
			return false
		}
	}
	for _, it := range seq {
		if !s.Item.MatchesItem(it) {
			return false
		}
	}
	return true
}

// NodeTest is the test part of a path step: by kind and/or name, with
// namespace or local-part wildcards ("*", "ns:*", "*:local").
type NodeTest struct {
	// Kind restricts the node kind; KindAny matches the axis's principal
	// node kind combined with the name test.
	Kind      TestKind
	Name      xdm.QName
	WildSpace bool // "*:local": any namespace
	WildLocal bool // "ns:*": any local name
	AnyName   bool // "*" or kind test without name
}

// TestKind discriminates node tests.
type TestKind uint8

const (
	TestName    TestKind = iota // name test against the principal node kind
	TestAnyKind                 // node()
	TestDoc
	TestElement
	TestAttribute
	TestText
	TestComment
	TestPI
)

// MatchesNode reports whether node n passes the test; principal is the
// principal node kind of the axis (element for most axes, attribute for the
// attribute axis).
func (t *NodeTest) MatchesNode(n xdm.Node, principal xdm.NodeKind) bool {
	return t.Matches(n.Kind(), n.NodeName(), principal)
}

// Matches is the node test on a node's kind and name. The store's scans
// test the kind, then the name by pool index (see NameFree, Exact), and
// compare names as strings only for a name the pool cannot answer yet.
func (t *NodeTest) Matches(kind xdm.NodeKind, name xdm.QName, principal xdm.NodeKind) bool {
	return t.MatchesKind(kind, principal) && t.MatchesName(name)
}

// MatchesKind is the kind part of the test.
func (t *NodeTest) MatchesKind(kind, principal xdm.NodeKind) bool {
	switch t.Kind {
	case TestAnyKind:
		return true
	case TestDoc:
		return kind == xdm.DocumentNode
	case TestText:
		return kind == xdm.TextNode
	case TestComment:
		return kind == xdm.CommentNode
	case TestPI:
		return kind == xdm.PINode
	case TestElement:
		return kind == xdm.ElementNode
	case TestAttribute:
		return kind == xdm.AttributeNode
	default: // TestName
		return kind == principal
	}
}

// MatchesName is the name part of the test, for a node that passed the
// kind part.
func (t *NodeTest) MatchesName(name xdm.QName) bool {
	switch {
	case t.NameFree():
		return true
	case t.Kind == TestPI:
		return name.Local == t.Name.Local
	case t.WildSpace:
		return name.Local == t.Name.Local
	case t.WildLocal:
		return name.Space == t.Name.Space
	}
	return name.Equal(t.Name)
}

// NameFree reports whether every name passes the test: a kind test without
// a name, or the "*" wildcard.
func (t *NodeTest) NameFree() bool {
	switch t.Kind {
	case TestAnyKind, TestDoc, TestText, TestComment:
		return true
	case TestPI:
		return t.AnyName || t.Name.Local == ""
	}
	return t.AnyName
}

// Exact reports whether one expanded name passes the test: no wildcard,
// so a name pool answers it with one index.
func (t *NodeTest) Exact() bool {
	return !t.NameFree() && t.Kind != TestPI && !t.WildSpace && !t.WildLocal
}

// String renders the node test in XQuery syntax.
func (t NodeTest) String() string {
	switch t.Kind {
	case TestAnyKind:
		return "node()"
	case TestDoc:
		return "document-node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name.Local != "" {
			return "processing-instruction(" + t.Name.Local + ")"
		}
		return "processing-instruction()"
	case TestElement:
		return kindTestString("element", ItemType{Name: t.Name, AnyName: t.AnyName})
	case TestAttribute:
		return kindTestString("attribute", ItemType{Name: t.Name, AnyName: t.AnyName})
	}
	switch {
	case t.AnyName:
		return "*"
	case t.WildSpace:
		return "*:" + t.Name.Local
	case t.WildLocal:
		return t.Name.Prefix + ":*"
	default:
		return t.Name.String()
	}
}

// SubtypeOf reports a conservative subtype relation between sequence types:
// true only when every instance of s is an instance of o. Used by the
// optimizer; false negatives are safe.
func (s SequenceType) SubtypeOf(o SequenceType) bool {
	if !occSubtype(s.Occ, o.Occ) {
		return false
	}
	if s.Occ == OccEmpty {
		return o.Occ == OccEmpty || o.Occ == OccOpt || o.Occ == OccStar
	}
	return s.Item.subtypeOf(o.Item)
}

func occSubtype(a, b Occurrence) bool {
	// counts admitted: One {1}, Opt {0,1}, Star {0..}, Plus {1..}, Empty {0}
	admits := func(o Occurrence) (lo, hi int) {
		switch o {
		case OccOne:
			return 1, 1
		case OccOpt:
			return 0, 1
		case OccStar:
			return 0, 1 << 30
		case OccPlus:
			return 1, 1 << 30
		default:
			return 0, 0
		}
	}
	alo, ahi := admits(a)
	blo, bhi := admits(b)
	return alo >= blo && ahi <= bhi
}

func (t ItemType) subtypeOf(o ItemType) bool {
	if o.Kind == KAnyItem {
		return true
	}
	if t.Kind == KAtomic && o.Kind == KAtomic {
		return t.Type.Derives(o.Type)
	}
	if o.Kind == KAnyNode {
		switch t.Kind {
		case KAnyNode, KDocument, KElement, KAttribute, KText, KComment, KPI:
			return true
		}
		return false
	}
	if t.Kind != o.Kind {
		return false
	}
	// Same node-kind tests: name constraint must be no looser.
	if o.AnyName || o.Name.IsZero() {
		return true
	}
	return !t.AnyName && t.Name.Equal(o.Name)
}
