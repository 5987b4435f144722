package store

import (
	"errors"
	"fmt"
	"slices"

	"xqgo/internal/xdm"
)

// BuilderOptions configure document construction.
type BuilderOptions struct {
	// PoolText deduplicates repeated text/attribute values (the paper's
	// dictionary-pooling optimization). Off by default.
	PoolText bool
	// Names, when non-nil, is a shared name pool; otherwise the document
	// gets a private pool.
	Names *NamePool
	// URI sets the document/base URI.
	URI string
}

// Builder assembles a Document from a stream of events (the push side of
// the token-stream model). It is used by the XML parser and by the
// runtime's node constructors.
type Builder struct {
	doc   *Document
	texts *TextPool

	// open element stack
	stack []int32
	// last child id per open element (parallel to stack), -1 if none yet
	lastChild []int32
	// last attribute id of the innermost open element, -1 if none
	lastAttr int32
	// content seen for innermost open element (attributes no longer allowed)
	contentSeen bool
	// Pending text accumulates adjacent text so the tree has merged text
	// nodes. A lone run (the common case) is kept as the caller's string in
	// pendingOne and becomes the node value without a copy; only a second
	// adjacent run moves both into pendingText.
	pendingOne  string
	pendingText []byte
	havePending bool
	done        bool
	// room is the columns' common capacity, in nodes.
	room int
}

// NewBuilder creates a builder.
func NewBuilder(opts BuilderOptions) *Builder {
	names := opts.Names
	if names == nil {
		names = NewNamePool()
	}
	b := &Builder{
		doc: &Document{
			Seq:   docSeq.Add(1),
			URI:   opts.URI,
			Names: names,
		},
		lastAttr: -1,
	}
	if opts.PoolText {
		b.texts = NewTextPool()
	}
	return b
}

func (b *Builder) appendNode(kind xdm.NodeKind, name int32, value string) int32 {
	d := b.doc
	if len(d.kind) == b.room {
		b.grow()
	}
	id := int32(len(d.kind))
	parent := int32(-1)
	level := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		level = d.level[parent] + 1
	}
	d.kind = append(d.kind, kind)
	d.name = append(d.name, name)
	d.parent = append(d.parent, parent)
	d.endID = append(d.endID, id)
	d.nextSib = append(d.nextSib, -1)
	d.firstChild = append(d.firstChild, -1)
	d.value = append(d.value, value)
	d.level = append(d.level, level)
	return id
}

// ownPrefix records the prefix of node id when the name pool keeps another
// one for its expanded name (the first interned): fn:name reads it.
func (b *Builder) ownPrefix(id, name int32, q xdm.QName) {
	if b.doc.Names.Name(name).Prefix == q.Prefix {
		return
	}
	if b.doc.prefix == nil {
		b.doc.prefix = map[int32]string{}
	}
	b.doc.prefix[id] = q.Prefix
}

// grow doubles the room of every column at once. Left to append, each column
// of a large document would grow by a quarter at a time, copying and
// clearing several times the final size.
func (b *Builder) grow() {
	d := b.doc
	n := max(len(d.kind), 1)
	d.kind = slices.Grow(d.kind, n)
	d.name = slices.Grow(d.name, n)
	d.parent = slices.Grow(d.parent, n)
	d.endID = slices.Grow(d.endID, n)
	d.nextSib = slices.Grow(d.nextSib, n)
	d.firstChild = slices.Grow(d.firstChild, n)
	d.value = slices.Grow(d.value, n)
	d.level = slices.Grow(d.level, n)
	b.room = d.room()
}

// room is how many nodes the columns hold before one must grow.
func (d *Document) room() int {
	return min(cap(d.kind), cap(d.name), cap(d.parent), cap(d.endID),
		cap(d.nextSib), cap(d.firstChild), cap(d.value), cap(d.level))
}

// linkChild attaches id as the next child of the innermost open node.
func (b *Builder) linkChild(id int32) {
	if len(b.stack) == 0 {
		return
	}
	parent := b.stack[len(b.stack)-1]
	if prev := b.lastChild[len(b.lastChild)-1]; prev >= 0 {
		b.doc.nextSib[prev] = id
	} else {
		b.doc.firstChild[parent] = id
	}
	b.lastChild[len(b.lastChild)-1] = id
}

// StartDocument begins a tree rooted at a document node. Optional: fragments
// built without it are rooted directly at their first node.
func (b *Builder) StartDocument() {
	id := b.appendNode(xdm.DocumentNode, -1, "")
	b.doc.HasRoot = true
	b.stack = append(b.stack, id)
	b.lastChild = append(b.lastChild, -1)
}

// StartElement opens an element.
func (b *Builder) StartElement(q xdm.QName) {
	b.flushText()
	name := b.doc.Names.Intern(q)
	id := b.appendNode(xdm.ElementNode, name, "")
	b.ownPrefix(id, name, q)
	b.linkChild(id)
	b.stack = append(b.stack, id)
	b.lastChild = append(b.lastChild, -1)
	b.lastAttr = -1
	b.contentSeen = false
}

// ErrDuplicateAttribute is wrapped by the error Attr and CopyNode return for
// a second attribute with the same expanded name on one element, so callers
// can tell it from an attribute that arrives after content.
var ErrDuplicateAttribute = errors.New("duplicate attribute")

// Attr adds an attribute to the innermost open element. It is an error to
// add attributes after content, or with no open element (except when
// building a standalone attribute fragment at the root).
func (b *Builder) Attr(q xdm.QName, value string) error {
	if len(b.stack) == 0 {
		// standalone attribute node fragment
		name := b.doc.Names.Intern(q)
		b.ownPrefix(b.appendNode(xdm.AttributeNode, name, b.texts.Intern(value)), name, q)
		return nil
	}
	owner := b.stack[len(b.stack)-1]
	if b.doc.kind[owner] != xdm.ElementNode {
		return fmt.Errorf("store: attribute %s outside an element", q)
	}
	if b.contentSeen {
		return fmt.Errorf("store: attribute %s after element content", q)
	}
	// Duplicate check comparing interned name indexes directly: the builder
	// may be running under the frontier lock of a lazy parse, so it must not
	// re-enter the locking Document accessors.
	nameIdx := b.doc.Names.Intern(q)
	from, to := owner+1, int32(len(b.doc.kind))
	for i := from; i < to; i++ {
		if b.doc.kind[i] == xdm.AttributeNode && b.doc.name[i] == nameIdx {
			return fmt.Errorf("store: %w %s", ErrDuplicateAttribute, q)
		}
	}
	id := b.appendNode(xdm.AttributeNode, nameIdx, b.texts.Intern(value))
	b.ownPrefix(id, nameIdx, q)
	if b.lastAttr >= 0 {
		b.doc.nextSib[b.lastAttr] = id
	}
	b.lastAttr = id
	return nil
}

// NSDecl records a namespace declaration on the innermost open element.
func (b *Builder) NSDecl(prefix, uri string) {
	if len(b.stack) == 0 {
		return
	}
	b.doc.NS = append(b.doc.NS, NSDecl{Elem: b.stack[len(b.stack)-1], Prefix: prefix, URI: uri})
}

// Text adds character content; adjacent Text calls merge into one text node
// and zero-length text produces no node, per the data model.
func (b *Builder) Text(s string) {
	if s == "" {
		return
	}
	b.contentSeen = true
	switch {
	case !b.havePending:
		b.pendingOne = s
		b.havePending = true
	case b.pendingOne != "":
		b.pendingText = append(append(b.pendingText, b.pendingOne...), s...)
		b.pendingOne = ""
	default:
		b.pendingText = append(b.pendingText, s...)
	}
}

func (b *Builder) flushText() {
	if !b.havePending {
		return
	}
	s := b.pendingOne
	if s == "" {
		s = string(b.pendingText)
		b.pendingText = b.pendingText[:0]
	}
	b.pendingOne = ""
	b.havePending = false
	id := b.appendNode(xdm.TextNode, -1, b.texts.Intern(s))
	b.linkChild(id)
	b.contentSeen = true
}

// Comment adds a comment node.
func (b *Builder) Comment(s string) {
	b.flushText()
	id := b.appendNode(xdm.CommentNode, -1, s)
	b.linkChild(id)
	b.contentSeen = true
}

// PI adds a processing-instruction node; target becomes the node name.
func (b *Builder) PI(target, data string) {
	b.flushText()
	id := b.appendNode(xdm.PINode, b.doc.Names.Intern(xdm.LocalName(target)), data)
	b.linkChild(id)
	b.contentSeen = true
}

// EndElement closes the innermost open element.
func (b *Builder) EndElement() {
	b.flushText()
	id := b.stack[len(b.stack)-1]
	b.doc.endID[id] = int32(len(b.doc.kind)) - 1
	b.stack = b.stack[:len(b.stack)-1]
	b.lastChild = b.lastChild[:len(b.lastChild)-1]
	b.lastAttr = -1
	b.contentSeen = true // parent has now seen content
}

// Done finalizes and returns the document. The builder must not be used
// again, except through Reset.
func (b *Builder) Done() (*Document, error) {
	b.flushText()
	if b.done {
		return nil, fmt.Errorf("store: builder already finalized")
	}
	// Close an optional document-node root.
	if len(b.stack) == 1 && b.doc.kind[b.stack[0]] == xdm.DocumentNode {
		b.doc.endID[b.stack[0]] = int32(len(b.doc.kind)) - 1
		b.stack = b.stack[:0]
		b.lastChild = b.lastChild[:0]
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("store: %d unclosed element(s)", len(b.stack))
	}
	if len(b.doc.kind) == 0 {
		// An empty fragment: a document node with no content.
		b.StartDocument()
		b.doc.endID[0] = 0
		b.stack = b.stack[:0]
		b.lastChild = b.lastChild[:0]
	}
	b.fit()
	b.done = true
	return b.doc, nil
}

// fit gives a large document columns of its own length when doubling left
// more than a quarter of them unused: a built document may live as long as
// the catalog holds it. Small ones — the window arena's, constructed
// fragments — keep their room.
func (b *Builder) fit() {
	d := b.doc
	if n := len(d.kind); n < 1024 || b.room-n <= n/4 {
		return
	}
	d.kind = slices.Clone(d.kind)
	d.name = slices.Clone(d.name)
	d.parent = slices.Clone(d.parent)
	d.endID = slices.Clone(d.endID)
	d.nextSib = slices.Clone(d.nextSib)
	d.firstChild = slices.Clone(d.firstChild)
	d.value = slices.Clone(d.value)
	d.level = slices.Clone(d.level)
	b.room = d.room()
}

// Reset re-arms the builder for another document that reuses the storage of
// the one it built last: the streaming evaluator's window arena, where one
// builder and one set of columns serve every window of a feed instead of a
// fresh builder and eight freshly grown slices per window.
//
// The next document is a new *Document with a fresh sequence number and the
// same name pool and URI; it takes over the previous document's columns
// truncated to length zero, capacity kept. Node identity, document order and
// every cache keyed on a document (DocStats, join indexes, per-execution
// strategy decisions) are therefore distinct per window by construction.
//
// Lifetime rule: Reset ends the life of the document the builder produced
// before. That document's columns are emptied, so a node of it that is used
// afterwards fails loudly (index out of range, surfaced as an internal error
// at the engine's recover boundaries) rather than reading the next window's
// data. Callers must have consumed, serialized or copied whatever they need
// from a window before resetting the arena for the next one.
func (b *Builder) Reset() {
	old := b.doc
	b.doc = &Document{
		Seq:   docSeq.Add(1),
		URI:   old.URI,
		Names: old.Names,

		kind:       old.kind[:0],
		name:       old.name[:0],
		parent:     old.parent[:0],
		endID:      old.endID[:0],
		nextSib:    old.nextSib[:0],
		firstChild: old.firstChild[:0],
		value:      old.value[:0],
		level:      old.level[:0],
		NS:         old.NS[:0],
	}
	old.kind, old.name, old.parent, old.endID = nil, nil, nil, nil
	old.nextSib, old.firstChild, old.value, old.level, old.NS = nil, nil, nil, nil, nil
	b.stack = b.stack[:0]
	b.lastChild = b.lastChild[:0]
	b.lastAttr = -1
	b.contentSeen = false
	b.pendingOne = ""
	b.pendingText = b.pendingText[:0]
	b.havePending = false
	b.done = false
	b.room = 0
}

// isOpen reports whether element id is still on the open stack. The stack
// holds strictly increasing ids (pre-order), so binary search applies.
func (b *Builder) isOpen(id int32) bool {
	lo, hi := 0, len(b.stack)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case b.stack[mid] == id:
			return true
		case b.stack[mid] < id:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// NodeCount returns the number of nodes appended so far (valid mid-build;
// used for materialization accounting).
func (b *Builder) NodeCount() int32 { return int32(len(b.doc.kind)) }

// CopyNode deep-copies a node (from any document) into the current build
// position, giving the copy a fresh identity — the semantics of including an
// existing node in a constructor's content. Document nodes are replaced by
// their children, per the element-content rules.
func (b *Builder) CopyNode(n xdm.Node) error {
	if sn, ok := n.(*Node); ok {
		return b.copyStoreTree(sn.D, sn.ID)
	}
	return b.copyGeneric(n)
}

// copyStoreTree copies via the frontier-aware accessors: the source may be
// an in-progress lazy document (the destination never is — it belongs to
// this builder).
func (b *Builder) copyStoreTree(d *Document, id int32) error {
	switch d.Kind(id) {
	case xdm.DocumentNode:
		for c := d.FirstChildID(id); c >= 0; c = d.NextSiblingID(c) {
			if err := b.copyStoreTree(d, c); err != nil {
				return err
			}
		}
	case xdm.ElementNode:
		b.StartElement(d.LexicalName(id))
		for _, ns := range d.NSDecls(id) {
			b.NSDecl(ns.Prefix, ns.URI)
		}
		from, to := d.AttrRange(id)
		for i := from; i < to; i++ {
			if err := b.Attr(d.LexicalName(i), d.Value(i)); err != nil {
				return err
			}
		}
		for c := d.FirstChildID(id); c >= 0; c = d.NextSiblingID(c) {
			if err := b.copyStoreTree(d, c); err != nil {
				return err
			}
		}
		b.EndElement()
	case xdm.AttributeNode:
		return b.Attr(d.LexicalName(id), d.Value(id))
	case xdm.TextNode:
		b.Text(d.Value(id))
	case xdm.CommentNode:
		b.Comment(d.Value(id))
	case xdm.PINode:
		b.PI(d.LexicalName(id).Local, d.Value(id))
	}
	return nil
}

func (b *Builder) copyGeneric(n xdm.Node) error {
	switch n.Kind() {
	case xdm.DocumentNode:
		for _, c := range n.ChildrenOf() {
			if err := b.copyGeneric(c); err != nil {
				return err
			}
		}
	case xdm.ElementNode:
		b.StartElement(n.NodeName())
		for _, a := range n.AttributesOf() {
			if err := b.Attr(a.NodeName(), a.StringValue()); err != nil {
				return err
			}
		}
		for _, c := range n.ChildrenOf() {
			if err := b.copyGeneric(c); err != nil {
				return err
			}
		}
		b.EndElement()
	case xdm.AttributeNode:
		return b.Attr(n.NodeName(), n.StringValue())
	case xdm.TextNode:
		b.Text(n.StringValue())
	case xdm.CommentNode:
		b.Comment(n.StringValue())
	case xdm.PINode:
		b.PI(n.NodeName().Local, n.StringValue())
	}
	return nil
}
