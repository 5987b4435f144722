package xdm

// NodeKind enumerates the seven XDM node kinds.
type NodeKind uint8

const (
	DocumentNode NodeKind = iota
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	PINode
	NamespaceNode
)

var kindNames = [...]string{
	"document", "element", "attribute", "text", "comment",
	"processing-instruction", "namespace",
}

func (k NodeKind) String() string { return kindNames[k] }

// Node is the accessor interface of the data model ("Node accessors" in the
// paper): every node has an identity, a kind, an optional name, a string
// value, a typed value, and tree links. The single implementation lives in
// internal/store; the interface keeps the layering acyclic.
type Node interface {
	Item

	Kind() NodeKind
	// NodeName returns the node's name; zero QName for unnamed kinds.
	NodeName() QName
	// StringValue is the concatenated text content (elements/documents) or
	// the value (attributes, text, comments, PIs).
	StringValue() string
	// TypedValue returns the node's typed value. Without schema validation
	// this is a single xs:untypedAtomic holding the string value.
	TypedValue() Atomic
	// Parent returns the parent node, or nil at a tree root.
	Parent() Node
	// ChildrenOf returns the child nodes in document order (empty for
	// leaves). Attribute and namespace nodes are not children.
	ChildrenOf() []Node
	// AttributesOf returns the attribute nodes of an element.
	AttributesOf() []Node
	// BaseURI returns the document's base URI, if known.
	BaseURI() string

	// SameNode reports node identity (the "is" operator).
	SameNode(Node) bool
	// OrderKey returns a global document-order key: documents are ordered by
	// creation sequence, nodes within a document by pre-order position.
	// Attribute nodes order after their owner element and before its children.
	OrderKey() (doc uint64, pre int64)
	// Root returns the root of the tree containing the node.
	Root() Node
}

// CompareOrder orders two nodes in global document order: -1, 0, +1.
func CompareOrder(a, b Node) int {
	da, pa := a.OrderKey()
	db, pb := b.OrderKey()
	switch {
	case da < db:
		return -1
	case da > db:
		return 1
	case pa < pb:
		return -1
	case pa > pb:
		return 1
	default:
		return 0
	}
}
