package store

import (
	"sort"
	"sync/atomic"

	"xqgo/internal/labeling"
	"xqgo/internal/xdm"
)

// docSeq hands out global document-order sequence numbers: nodes in
// different trees are ordered by the creation order of their trees, which
// satisfies the data model's "stable, implementation-defined" requirement.
var docSeq atomic.Uint64

// NSDecl records a namespace declaration (xmlns[:prefix]="uri") on an
// element, used by the serializer to re-create in-scope bindings.
type NSDecl struct {
	Elem   int32
	Prefix string // empty for the default namespace
	URI    string
}

// Document is one tree (a parsed document or a constructed fragment) stored
// as parallel arrays indexed by node id = pre-order position. Attribute
// nodes occupy the ids immediately after their owner element, so id order is
// exactly document order and the pair (id, endID) is a region label.
//
// A document may be under construction (see lazy.go): accessors that could
// read past the parse frontier drive the frontier forward, and all array
// reads synchronize with the frontier mutex until construction finishes.
// Finished documents (feed == nil, the common case) read lock-free.
type Document struct {
	Seq     uint64 // global ordering sequence
	URI     string // base/document URI, may be empty
	HasRoot bool   // true when node 0 is a document node (parsed documents)

	Names *NamePool

	kind       []xdm.NodeKind
	name       []int32 // index into Names; -1 for unnamed kinds
	parent     []int32 // -1 at node 0
	endID      []int32 // id of last node in the subtree (== own id for leaves)
	nextSib    []int32 // next sibling id, -1
	firstChild []int32 // first non-attribute child id, -1
	value      []string
	level      []int32

	NS []NSDecl

	// feed is the parse frontier while the document is under construction
	// (lazy.go); nil once complete.
	feed atomic.Pointer[frontier]

	// stats caches the per-document statistics (stats.go). Computed at most
	// once per completed document; racing computations are idempotent.
	stats atomic.Pointer[DocStats]
}

// NumNodes returns the number of nodes (of all kinds) in the document,
// driving an in-progress parse to completion first.
func (d *Document) NumNodes() int {
	if d.feed.Load() != nil {
		if err := d.Complete(); err != nil {
			panic(Abort{Err: err})
		}
	}
	return len(d.kind)
}

// Node returns the node with the given id.
func (d *Document) Node(id int32) *Node { return &Node{D: d, ID: id} }

// RootNode returns node 0: the document node for parsed documents, the
// constructed node itself for fragments.
func (d *Document) RootNode() *Node { return d.Node(0) }

// Region returns the region label of a node: Start = id, End = last
// descendant id, plus the depth. This is the labeling scheme consumed by the
// structural-join algorithms.
func (d *Document) Region(id int32) labeling.Region {
	return labeling.Region{Start: int64(id), End: int64(d.EndID(id)), Level: d.Level(id)}
}

// Dewey computes the Dewey label of a node by walking to the root
// (O(depth) — provided for the labeling experiments, not the hot path).
func (d *Document) Dewey(id int32) labeling.Dewey {
	f := d.rlock()
	var rev []uint32
	for cur := id; cur >= 0; cur = d.parent[cur] {
		p := d.parent[cur]
		if p < 0 {
			rev = append(rev, 1)
			break
		}
		ord := uint32(1)
		for sib := d.firstSibling(cur); sib != cur; sib = d.nextSib[sib] {
			ord++
		}
		rev = append(rev, ord)
	}
	d.runlock(f)
	out := make(labeling.Dewey, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// firstSibling walks to the first sibling of id. Callers must hold the
// frontier lock for in-progress documents; everything it reads (the chain
// up to an existing node) is final once id exists.
func (d *Document) firstSibling(id int32) int32 {
	p := d.parent[id]
	if p < 0 {
		return id
	}
	if d.kind[id] == xdm.AttributeNode {
		return p + 1 // first attribute follows the element
	}
	return d.firstChild[p]
}

// Kind returns the kind of node id.
func (d *Document) Kind(id int32) xdm.NodeKind {
	f := d.rlock()
	k := d.kind[id]
	d.runlock(f)
	return k
}

// NameOf returns the QName of node id (zero for unnamed kinds).
func (d *Document) NameOf(id int32) xdm.QName {
	if n := d.NameIndex(id); n >= 0 {
		return d.Names.Name(n)
	}
	return xdm.QName{}
}

// NameIndex returns the name-pool index of node id, or -1.
func (d *Document) NameIndex(id int32) int32 {
	f := d.rlock()
	n := d.name[id]
	d.runlock(f)
	return n
}

// Value returns the stored value of node id (text content for leaves,
// attribute value, PI data; empty for elements/documents).
func (d *Document) Value(id int32) string {
	f := d.rlock()
	v := d.value[id]
	d.runlock(f)
	return v
}

// ParentID returns the parent id of node id, or -1.
func (d *Document) ParentID(id int32) int32 {
	f := d.rlock()
	p := d.parent[id]
	d.runlock(f)
	return p
}

// EndID returns the id of the last node in the subtree of id, parsing the
// rest of the subtree on demand for in-progress documents.
func (d *Document) EndID(id int32) int32 {
	f := d.rlock()
	if f != nil {
		f.require(func() bool { return f.closed(id) })
	}
	v := d.endID[id]
	d.runlock(f)
	return v
}

// FirstChildID returns the first non-attribute child, or -1, parsing far
// enough to know which for in-progress documents.
func (d *Document) FirstChildID(id int32) int32 {
	f := d.rlock()
	if f != nil {
		f.require(func() bool { return d.firstChild[id] >= 0 || f.closed(id) })
	}
	v := d.firstChild[id]
	d.runlock(f)
	return v
}

// NextSiblingID returns the next sibling, or -1, parsing far enough to know
// which for in-progress documents. Attribute runs are complete as soon as
// their owner element exists, so attribute siblings never wait.
func (d *Document) NextSiblingID(id int32) int32 {
	f := d.rlock()
	if f != nil && d.kind[id] != xdm.AttributeNode {
		f.require(func() bool {
			if d.nextSib[id] >= 0 {
				return true
			}
			p := d.parent[id]
			return p < 0 || f.closed(p)
		})
	}
	v := d.nextSib[id]
	d.runlock(f)
	return v
}

// Level returns the depth of node id (0 at node 0).
func (d *Document) Level(id int32) int32 {
	f := d.rlock()
	v := d.level[id]
	d.runlock(f)
	return v
}

// AttrRange returns the half-open id range of the attribute nodes of an
// element (empty range if none). Attributes land in the same parse
// increment as their owner, so the range is final once the element exists.
func (d *Document) AttrRange(elem int32) (from, to int32) {
	f := d.rlock()
	from = elem + 1
	to = from
	for int(to) < len(d.kind) && d.kind[to] == xdm.AttributeNode && d.parent[to] == elem {
		to++
	}
	d.runlock(f)
	return from, to
}

// NSDecls returns the namespace declarations recorded on elem, as a slice
// of d.NS (not to be modified). The builder appends d.NS in pre-order, so the
// run is found by binary search; a document that declares no namespaces pays
// one length check. An element's declarations land in the same parse
// increment as the element, so the run is final once the element exists.
func (d *Document) NSDecls(elem int32) []NSDecl {
	f := d.rlock()
	ns := d.NS
	d.runlock(f)
	if len(ns) == 0 {
		return nil
	}
	lo := sort.Search(len(ns), func(i int) bool { return ns[i].Elem >= elem })
	hi := lo
	for hi < len(ns) && ns[hi].Elem == elem {
		hi++
	}
	return ns[lo:hi]
}

// textContent concatenates the descendant text of an element or document
// node: the string-value computation, frontier-aware.
func (d *Document) textContent(id int32) string {
	f := d.rlock()
	if f != nil {
		f.require(func() bool { return f.closed(id) })
	}
	end := d.endID[id]
	// Fast path: single text child (no builder allocation).
	single := ""
	first := true
	var parts []string
	for i := id + 1; i <= end; i++ {
		if d.kind[i] == xdm.TextNode {
			if first {
				single = d.value[i]
				first = false
			} else {
				if parts == nil {
					parts = append(parts, single)
				}
				parts = append(parts, d.value[i])
			}
		}
	}
	d.runlock(f)
	if parts != nil {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		b := make([]byte, 0, n)
		for _, p := range parts {
			b = append(b, p...)
		}
		return string(b)
	}
	return single
}
