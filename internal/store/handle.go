package store

import "sync/atomic"

// Node handles. Every stored node that a scan, a join cursor or a built-in
// argument emits is an item carrying (document, id). Nothing writes a Node
// once it exists, so one handle per id can serve every consumer of a
// finished document: the slab. A slab costs 16 bytes a node, the same as
// one box, so a document first rents: it boxes each node it hands out and
// counts the boxes. Once the boxes it has handed out add up to its node
// count, the next request buys the slab and every later one is served
// from it. A document therefore never pays more than about twice what
// boxing alone or a slab alone would cost, and the rule reads only how the
// document is used. A document that is still being parsed boxes and pays
// no rent: its node count is not known yet.
//
// The slab's directory is sized from the finished document's node count
// when it is bought. Its chunks of chunkNodes handles are built on first
// touch, each behind an atomic pointer set by compare-and-swap, so racing
// builders agree on one chunk; the nodes after the last full chunk are
// built with the directory, exactly as many as there are.

const (
	chunkShift = 8
	chunkNodes = 1 << chunkShift
)

type chunk [chunkNodes]Node

// slab is a finished document's shared node handles.
type slab struct {
	dir  []atomic.Pointer[chunk] // full chunks, built on first touch
	tail []Node                  // the nodes after the last full chunk
}

// Node returns the item of node id: the one constructor of a stored node's
// item. A finished document that has paid its rent returns its shared
// handle; otherwise the node is boxed.
func (d *Document) Node(id int32) *Node {
	if s := d.slab.Load(); s != nil {
		return s.node(d, id)
	}
	return d.box(id)
}

// box hands out a fresh box for id and adds it to a finished document's
// rent; the request after the rent is paid buys the slab instead.
func (d *Document) box(id int32) *Node {
	if d.feed.Load() == nil && d.rent.Add(1) > int32(len(d.kind)) {
		return d.buy().node(d, id)
	}
	return &Node{D: d, ID: id}
}

// buy installs the slab of a finished document, or returns the one a
// racing buyer installed first.
func (d *Document) buy() *slab {
	n := len(d.kind)
	s := &slab{dir: make([]atomic.Pointer[chunk], n>>chunkShift)}
	if rest := n & (chunkNodes - 1); rest > 0 {
		base := int32(n - rest)
		s.tail = make([]Node, rest)
		for i := range s.tail {
			s.tail[i] = Node{D: d, ID: base + int32(i)}
		}
	}
	if d.slab.CompareAndSwap(nil, s) {
		return s
	}
	return d.slab.Load()
}

func (s *slab) node(d *Document, id int32) *Node {
	i := int(id >> chunkShift)
	if i >= len(s.dir) {
		return &s.tail[id&(chunkNodes-1)]
	}
	c := s.dir[i].Load()
	if c == nil {
		c = s.build(d, i)
	}
	return &c[id&(chunkNodes-1)]
}

// build makes chunk i on first touch; a racing builder's chunk loses the
// compare-and-swap and both return the winner.
func (s *slab) build(d *Document, i int) *chunk {
	c := new(chunk)
	base := int32(i << chunkShift)
	for j := range c {
		c[j] = Node{D: d, ID: base + int32(j)}
	}
	if s.dir[i].CompareAndSwap(nil, c) {
		return c
	}
	return s.dir[i].Load()
}

// Handles hands out the node items of one batch of a document: the slab's
// handles once the document has bought it, boxes while it rents. A hot
// loop takes one Handles per batch and calls Pay once at its end, so the
// rent counter is touched once a batch rather than once a node.
type Handles struct {
	d     *Document
	s     *slab
	boxed int32
}

// Handles starts a batch, buying the slab if the document's rent is paid.
func (d *Document) Handles() Handles {
	s := d.slab.Load()
	if s == nil && d.feed.Load() == nil && d.rent.Load() >= int32(len(d.kind)) {
		s = d.buy()
	}
	return Handles{d: d, s: s}
}

// Node returns the item of node id.
func (h *Handles) Node(id int32) *Node {
	if h.s != nil {
		return h.s.node(h.d, id)
	}
	h.boxed++
	return &Node{D: h.d, ID: id}
}

// Pay adds the batch's boxes to the rent of a finished document.
func (h *Handles) Pay() {
	if h.boxed > 0 && h.d.feed.Load() == nil {
		h.d.rent.Add(h.boxed)
	}
	h.boxed = 0
}
