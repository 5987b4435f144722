package structjoin

import "xqgo/internal/labeling"

// The holistic twig join (TwigStack, Bruno/Koudas/Srivastava): one
// getNext-driven pass over the Start-sorted posting lists of a pattern, with
// one stack per pattern node holding its open matches, and no intermediate
// pair list. Two sinks take its matches: PathCursor hands a linear chain's
// leaf ids to its caller a batch at a time (what the runtime executes, and
// PathMatchLeaf drains), TwigStack counts a branching pattern's embeddings
// (E6, Index.CountTwig).
//
// Stack invariant: a read first pops the entries that closed before the read
// posting starts, so each stack is a chain of nested regions, as deep as the
// document at most. Before a node's entries pop, its children's closed
// entries pop, so a child entry pops before the parent entries it matched
// under.

const infStart = int64(1)<<62 - 1

// TwigStats reports the work and intermediate-result volume of a twig join.
type TwigStats struct {
	// PathSolutions is the number of root-to-leaf solutions produced (the
	// holistic algorithms' total intermediate size).
	PathSolutions int64
	// Matches is the number of full embeddings of the pattern: per-leaf
	// counts merged at branch nodes as their entries pop.
	Matches int64
	// Pushes and Advances count stack pushes and stream advances.
	Pushes   int64
	Advances int64
}

// PathCursor is the holistic path join of a linear chain as a resumable
// leaf cursor: Next reads postings only until the caller's batch of leaf
// ids is full, and the next call picks up there. Its whole state is the
// pattern nodes' list positions and stacks. The leaves arrive in Start
// order, each once, so the ids are distinct and in document order.
// childEdge[i] constrains the edge between step i-1 and step i to
// parent/child; childEdge[0] constrains the first step to children of the
// document node (level 1). Lists must be Start-sorted, as built by
// BuildIndex. They are only read, so cursors over shared (differently
// pruned) lists may run concurrently: the runtime's morsel decomposition
// relies on this.
type PathCursor struct {
	j    twigJoin
	out  []int32 // the batch being filled; open pauses the run when it is full
	done bool
}

// NewPathCursor returns a cursor over the chain lists[0]//...//lists[k-1].
func NewPathCursor(lists []List, childEdge []bool) *PathCursor {
	k := len(lists)
	c := &PathCursor{j: twigJoin{q: make([]joinNode, k+1)}}
	c.j.q[0] = joinNode{stack: docStack, parent: -1, end: k + 1, kids: 1}
	for i := 1; i <= k; i++ {
		c.j.q[i] = joinNode{list: lists[i-1], child: childEdge[i-1], parent: i - 1, end: k + 1, kids: min(k-i, 1)}
	}
	c.j.sink = c
	c.done = k == 0 || !c.j.ready()
	return c
}

// Next fills ids with the next matched leaf ids and returns how many it
// wrote; 0 means the chain is exhausted.
func (c *PathCursor) Next(ids []int32) int {
	if c.done || len(ids) == 0 {
		return 0
	}
	c.out = ids[:0:len(ids)]
	c.done = !c.j.run()
	n := len(c.out)
	c.out = nil
	return n
}

func (c *PathCursor) open(j *twigJoin, q int, p Posting, _, _ int) {
	if j.q[q].kids == 0 {
		c.out = append(c.out, p.ID)
		j.paused = len(c.out) == cap(c.out)
	}
}

func (c *PathCursor) close(*twigJoin, int) {}

// PathMatchLeaf returns the distinct postings of the last list that
// terminate at least one full root-to-leaf match of the chain, in document
// order: a drain of a PathCursor, each id taken back to its posting in the
// leaf list, where BuildIndex lists every id once.
func PathMatchLeaf(lists []List, childEdge []bool) List {
	if len(lists) == 0 {
		return nil
	}
	c := NewPathCursor(lists, childEdge)
	leaf := lists[len(lists)-1]
	var out List
	var ids [256]int32
	p := 0
	for n := c.Next(ids[:]); n > 0; n = c.Next(ids[:]) {
		for _, id := range ids[:n] {
			for leaf[p].ID != id {
				p++
			}
			out = append(out, leaf[p])
			p++
		}
	}
	return out
}

// TwigStack runs the holistic twig join of pattern root against an index.
// The pattern is only read, so goroutines may share it.
func TwigStack(root *TwigNode, idx *Index) TwigStats {
	j := &twigJoin{q: []joinNode{{stack: docStack, parent: -1, kids: 1}}}
	j.add(root, 0, 0, idx)
	j.q[0].end = len(j.q)
	s := &countSink{c: make([][]int64, len(j.q))}
	s.c[0] = []int64{1, 0}
	if j.sink = s; j.ready() {
		j.run()
	}
	j.stats.Matches = s.c[0][1]
	return j.stats
}

// twigJoin is one run over a pattern flattened in pre-order. Node 0 stands
// for the document node: its one entry, stacked for the whole run, is the
// pattern root's parent, so the root's edge is an edge like any other.
type twigJoin struct {
	q      []joinNode
	sink   twigSink
	paused bool // set by the sink: run returns after the current posting
	stats  TwigStats
}

type joinNode struct {
	list  List
	pos   int
	child bool      // the edge to the parent is parent/child
	stack []Posting // open matches; leaves stack nothing
	// The parent (-1 at node 0), the end of the node's subtree (its children
	// are the nodes from the next one up to end, each followed by its own
	// subtree), the number of children, and the index among the siblings.
	parent, end, kids, slot int
}

// ended reports whether the top of n's stack ended before start.
func (n *joinNode) ended(start int64) bool {
	return len(n.stack) > 0 && n.stack[len(n.stack)-1].Region.End < start
}

// docStack is node 0's stack: one entry at level 0 that contains every
// posting. No run pushes or pops it, so runs share it.
var docStack = []Posting{{Region: labeling.Region{Start: -1, End: infStart}}}

// twigSink receives a run's matches. open: a posting of node q has a root
// path through the parent entries [lo, hi), and unless q is a leaf it now
// tops q's stack. close: the top of q's stack pops, its inside all read.
type twigSink interface {
	open(j *twigJoin, q int, p Posting, lo, hi int)
	close(j *twigJoin, q int)
}

// add appends pattern node t and its subtree in pre-order.
func (j *twigJoin) add(t *TwigNode, parent, slot int, idx *Index) {
	q := len(j.q)
	j.q = append(j.q, joinNode{list: idx.Elements(t.Name), child: t.ChildEdge, parent: parent,
		kids: len(t.Children), slot: slot})
	for i, c := range t.Children {
		j.add(c, q, i, idx)
	}
	j.q[q].end = len(j.q)
}

// run reads every pattern node's postings once, in the order getNext picks,
// and shows the sink each rooted posting and each pop. A sink that pauses
// the run ends this call after the posting it was shown; the next call
// resumes there. false once every leaf is read.
func (j *twigJoin) run() bool {
	for !j.paused {
		q := j.getNext(1)
		n := &j.q[q]
		if n.pos >= len(n.list) {
			j.clean(1, infStart) // every leaf is read
			return false
		}
		cur := n.list[n.pos]
		n.pos++
		j.stats.Advances++
		if j.q[n.parent].ended(cur.Region.Start) {
			j.clean(n.parent, cur.Region.Start)
		}
		if n.ended(cur.Region.Start) {
			j.clean(q, cur.Region.Start)
		}
		lo, hi := j.related(q, cur.Region)
		if lo == hi {
			continue // no root path through cur
		}
		j.stats.Pushes++
		if n.kids > 0 {
			n.stack = append(n.stack, cur)
		}
		j.sink.open(j, q, cur, lo, hi)
	}
	j.paused = false
	return true
}

// ready reports whether every pattern node has postings: a pattern with an
// empty list matches nothing.
func (j *twigJoin) ready() bool {
	for _, n := range j.q[1:] {
		if len(n.list) == 0 {
			return false
		}
	}
	return true
}

// getNext returns the node of q's subtree to read next: one whose head
// starts before its children's heads, each with a descendant extension in
// turn. Heads of q that end before a child's head starts match nothing and
// are skipped. On equal Starts (one node read twice by an a//a self-chain)
// the child goes first, so no entry is stacked beneath its twin.
func (j *twigJoin) getNext(q int) int {
	n := &j.q[q]
	if n.kids == 0 {
		return q
	}
	qmin, minStart, maxStart, done := -1, infStart, int64(-1), -1
	for c := q + 1; c < n.end; c = j.q[c].end {
		got, g := c, &j.q[c]
		if g.kids > 0 {
			got = j.getNext(c)
			g = &j.q[got]
		}
		if g.pos >= len(g.list) {
			// c's subtree has read all its leaves: q can match nothing new,
			// but its stacked entries still take its other children.
			maxStart, done = infStart, got
			continue
		}
		if got != c {
			return got
		}
		st := g.list[g.pos].Region.Start
		if qmin < 0 || st < minStart {
			qmin, minStart = c, st
		}
		maxStart = max(maxStart, st)
	}
	for n.pos < len(n.list) && n.list[n.pos].Region.End < maxStart {
		n.pos++
		j.stats.Advances++
	}
	if qmin < 0 {
		return done // q's whole subtree is read
	}
	if n.pos < len(n.list) && n.list[n.pos].Region.Start < minStart {
		return q
	}
	return qmin
}

// clean pops the entries of q's stack that ended before start, each after
// the children's entries inside it. Callers test ended first, inline.
func (j *twigJoin) clean(q int, start int64) {
	n := &j.q[q]
	for n.ended(start) {
		for c := q + 1; c < n.end; c = j.q[c].end {
			if j.q[c].ended(start) {
				j.clean(c, start)
			}
		}
		j.sink.close(j, q)
		n.stack = n.stack[:len(n.stack)-1]
	}
}

// related returns the entries [lo, hi) of q's parent stack that region r
// matches under. The entries that strictly contain r are a prefix of the
// nested chain (strict Contains rejects the same-Start twin of a
// self-chain); a child edge takes the top one of them if it is r's parent,
// the deepest ancestor r can have.
func (j *twigJoin) related(q int, r labeling.Region) (lo, hi int) {
	n := &j.q[q]
	ps := j.q[n.parent].stack
	hi = len(ps)
	for hi > 0 && !ps[hi-1].Region.Contains(r) {
		hi--
	}
	if !n.child {
		return 0, hi
	}
	if hi > 0 && ps[hi-1].Region.Level+1 == r.Level {
		return hi - 1, hi
	}
	return 0, 0
}

// countSink counts a twig's embeddings. Parallel to node q's stack, c[q]
// holds kids+1 counts per entry: the root-to-entry partial solutions summed
// over the entry and those below it, then per child the embeddings of that
// child's subtree below the entry. A match adds to the topmost parent entry
// it matched under; on a descendant edge each popping entry hands its count
// on to the entry under it, which contains it, so every add is O(1). A
// popping entry's embeddings are the product of its child counts.
type countSink struct{ c [][]int64 }

func (s *countSink) open(j *twigJoin, q int, _ Posting, lo, hi int) {
	n := &j.q[q]
	pc, w := s.c[n.parent], j.q[n.parent].kids+1
	down := pc[(hi-1)*w]
	if lo > 0 {
		down -= pc[(lo-1)*w]
	}
	if n.kids == 0 {
		j.stats.PathSolutions += down
		pc[(hi-1)*w+1+n.slot]++
		return
	}
	if below := len(s.c[q]) - n.kids - 1; below >= 0 {
		down += s.c[q][below]
	}
	s.c[q] = append(append(s.c[q], down), make([]int64, n.kids)...)
}

func (s *countSink) close(j *twigJoin, q int) {
	n := &j.q[q]
	c, w := s.c[q], n.kids+1
	top := len(c) - w
	e := int64(1)
	for k := q + 1; k < n.end; k = j.q[k].end {
		a := c[top+1+j.q[k].slot]
		e *= a
		if top > 0 && !j.q[k].child {
			c[top-w+1+j.q[k].slot] += a
		}
	}
	s.c[q] = c[:top]
	_, hi := j.related(q, n.stack[len(n.stack)-1].Region)
	s.c[n.parent][(hi-1)*(j.q[n.parent].kids+1)+1+n.slot] += e
}
