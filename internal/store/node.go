package store

import (
	"xqgo/internal/xdm"
)

// Node is a reference to one node of a Document; it implements xdm.Node.
// Nodes are value-like: two Node values referring to the same (Document, id)
// are the same node. Document.Node is the one constructor; a finished
// document may hand the same *Node to every consumer (handle.go), so
// nothing writes a Node once it exists.
type Node struct {
	D  *Document
	ID int32
}

var _ xdm.Node = (*Node)(nil)

// IsNode marks Node as the node kind of item.
func (n *Node) IsNode() bool { return true }

// Kind returns the node kind.
func (n *Node) Kind() xdm.NodeKind { return n.D.Kind(n.ID) }

// NodeName returns the node's expanded name.
func (n *Node) NodeName() xdm.QName { return n.D.LexicalName(n.ID) }

// StringValue returns the string value (Document.StringValue).
func (n *Node) StringValue() string { return n.D.StringValue(n.ID) }

// TypedValue returns the typed value; without schema validation every node
// is untyped, so this is xs:untypedAtomic of the string value (attributes
// likewise, per "type(year attribute) = xdt:untypedAtomic").
func (n *Node) TypedValue() xdm.Atomic { return xdm.NewUntyped(n.StringValue()) }

// Parent returns the parent node, or nil at the tree root.
func (n *Node) Parent() xdm.Node {
	p := n.D.ParentID(n.ID)
	if p < 0 {
		return nil
	}
	return n.D.Node(p)
}

// ChildrenOf returns the child nodes (attributes excluded) in document order.
func (n *Node) ChildrenOf() []xdm.Node {
	var out []xdm.Node
	h := n.D.Handles()
	for c := n.D.FirstChildID(n.ID); c >= 0; c = n.D.NextSiblingID(c) {
		out = append(out, h.Node(c))
	}
	h.Pay()
	return out
}

// AttributesOf returns the attribute nodes of an element.
func (n *Node) AttributesOf() []xdm.Node {
	from, to := n.D.AttrRange(n.ID)
	if n.Kind() != xdm.ElementNode || from == to {
		return nil
	}
	out := make([]xdm.Node, 0, to-from)
	h := n.D.Handles()
	for i := from; i < to; i++ {
		out = append(out, h.Node(i))
	}
	h.Pay()
	return out
}

// BaseURI returns the document URI.
func (n *Node) BaseURI() string { return n.D.URI }

// SameNode reports node identity.
func (n *Node) SameNode(o xdm.Node) bool {
	so, ok := o.(*Node)
	return ok && so.D == n.D && so.ID == n.ID
}

// OrderKey returns the global document-order key.
func (n *Node) OrderKey() (uint64, int64) { return n.D.Seq, int64(n.ID) }

// Root returns node 0 of the containing tree.
func (n *Node) Root() xdm.Node { return n.D.Node(0) }
