package runtime

import (
	"math"

	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Path evaluation: E1/E2 per the paper — evaluate E1, bind "." to each
// node, evaluate E2, concatenate, then eliminate duplicates and sort by
// document order. The final sort+dedup is skipped when the optimizer proved
// it unnecessary (Path.NoReorder, experiment E8); in that case the whole
// path is a fully streaming pipeline.

func (c *compiler) compilePath(n *expr.Path) (seqFn, error) {
	navFn, err := c.compileNavPath(n)
	if err != nil {
		return nil, err
	}
	jp := extractJoinPlan(n)
	if jp == nil {
		fn, id := c.tagID("path", n, navFn)
		c.ops[id].Strategy = optimizer.StrategyNavigation.String()
		return fn, nil
	}
	// Join-eligible: both compilations are kept and one operator dispatches
	// at run time between navigation and the path join — the compiled policy
	// first, then the cost model when the policy is Auto. The resolved choice
	// lands on the operator's profile row, so explain output shows which
	// strategy ran.
	policy := c.opts.Strategy
	fb := c.fb
	var opID int // set below, once the operator is tagged
	fn := func(fr *Frame) Iter {
		it, haveCtx := fr.ContextItem()
		if !haveCtx {
			return errIter(xdm.Errf("XPDY0002", "no context item for '/'"))
		}
		sn, isStore := it.(*store.Node)
		if !isStore {
			return navFn(fr) // non-store contexts always navigate
		}
		if fr.dyn.pathDecision(jp, sn.D, policy, opID, fb) == optimizer.StrategyTwigJoin {
			return jp.run(fr, sn, opID, fb)
		}
		return navFn(fr)
	}
	tagged, id := c.tagID("path", n, fn)
	opID = id
	c.ops[id].Strategy = policy.String()
	return tagged, nil
}

// compileNavPath is the navigation implementation of a path expression. A
// right side that is an axis step is applied to each left node directly;
// any other right side is evaluated under a focus per left node. The left
// input is memoized, for fn:last, only when the right side reads its focus
// position or size.
func (c *compiler) compileNavPath(n *expr.Path) (seqFn, error) {
	lf, err := c.compile(n.L)
	if err != nil {
		return nil, err
	}
	step, _ := n.R.(*expr.Step)
	var rf seqFn
	if step == nil {
		if rf, err = c.compile(n.R); err != nil {
			return nil, err
		}
	}
	memo := step == nil && expr.Positional(n.R)
	noReorder := n.NoReorder && !c.opts.Eager

	raw := func(fr *Frame) Iter {
		p := &pathIter{fr: fr, rf: rf, step: step}
		if memo {
			p.li, p.lastFn = memoized(lf(fr))
		} else {
			p.li = lf(fr)
		}
		return p
	}

	if noReorder {
		return raw, nil
	}
	// Materializing tail: sort by document order + dedup when the result is
	// nodes; pass through when it is purely atomic (the $x/f(.) case).
	return func(fr *Frame) Iter {
		seq, err := drainBatched(fr.dyn, raw(fr))
		if err != nil {
			return errIter(err)
		}
		nodes, atomics := 0, 0
		for _, it := range seq {
			if it.IsNode() {
				nodes++
			} else {
				atomics++
			}
		}
		switch {
		case nodes > 0 && atomics > 0:
			return errIter(xdm.ErrType("path result mixes nodes and atomic values"))
		case atomics > 0:
			return newSliceIter(seq)
		default:
			sorted, err := sortNodesDedup(seq)
			if err != nil {
				return errIter(err)
			}
			return newSliceIter(sorted)
		}
	}, nil
}

// pathIter is the streaming core of E1/E2: the right side applied per
// left-hand node, outputs concatenated. Batch pulls forward the demand to
// the current right-side iterator, so chains of steps move chunks end to end.
type pathIter struct {
	fr     *Frame
	rf     seqFn      // the right side under a focus; nil for a step
	step   *expr.Step // the right side when it is an axis step
	scan   storeScan  // the step's one scan, re-pointed at each stored left node
	li     Iter       // cursor over the left input
	lastFn func() (int64, error)
	cur    Iter
	pos    int64

	// Batch-mode left prefetch. Like flworIter, a left-input error found
	// while prefetching is stashed until the outputs of the nodes fetched
	// before it have all been delivered, so errors surface in the same
	// order as item-at-a-time evaluation.
	pending []xdm.Item
	pi, pn  int
	stash   error
	ldone   bool
}

// memoized keeps an input so that fn:last() can ask for its length.
func memoized(src Iter) (Iter, func() (int64, error)) {
	seq := NewLazySeq(src)
	return seq.Iterator(), func() (int64, error) {
		n, err := seq.Len()
		return int64(n), err
	}
}

// nextLeft yields the next left-hand node. In batched mode it prefetches a
// chunk of the left input into a pooled buffer.
func (p *pathIter) nextLeft(batched bool) (xdm.Item, bool, error) {
	if p.pi < p.pn {
		it := p.pending[p.pi]
		p.pi++
		return it, true, nil
	}
	if p.stash != nil {
		err := p.stash
		p.stash = nil
		p.ldone = true
		p.releaseLeft()
		return nil, false, err
	}
	if p.ldone {
		p.releaseLeft()
		return nil, false, nil
	}
	if !batched {
		it, ok, err := p.li.Next()
		if err != nil || !ok {
			p.ldone = true
		}
		return it, ok, err
	}
	if p.pending == nil {
		p.pending = p.fr.dyn.getBuf()
	}
	n, err := nextBatch(p.li, p.pending)
	p.pi, p.pn = 0, n
	if err != nil {
		p.stash = err
	} else if n == 0 {
		p.ldone = true
	}
	if n == 0 {
		return p.nextLeft(batched) // deliver the stash or the end
	}
	p.pi = 1
	return p.pending[0], true, nil
}

func (p *pathIter) releaseLeft() {
	if p.pending != nil {
		p.fr.dyn.putBuf(p.pending)
		p.pending = nil
		p.pi, p.pn = 0, 0
	}
}

// advance focuses the right side on the next left-hand node; ok=false at
// the end of the left input.
func (p *pathIter) advance(batched bool) (bool, error) {
	it, ok, err := p.nextLeft(batched)
	if err != nil || !ok {
		return false, err
	}
	node, isNode := it.(xdm.Node)
	if !isNode {
		p.releaseLeft()
		return false, xdm.ErrType("path step applied to an atomic value")
	}
	if p.step != nil {
		p.cur = p.applyStep(node)
		return true, nil
	}
	p.pos++
	p.cur = p.rf(p.fr.focus(it, p.pos, p.lastFn))
	return true, nil
}

// applyStep applies the right-side step to one left node. A stored node
// re-points the path's one scan, so the step allocates nothing per node.
func (p *pathIter) applyStep(n xdm.Node) Iter {
	if sn, ok := n.(*store.Node); ok && scansStore(p.step.Axis) {
		p.scan.reset(p.fr.dyn, sn, p.step.Axis, &p.step.Test)
		return &p.scan
	}
	return axisIter(p.fr.dyn, n, p.step.Axis, &p.step.Test)
}

func (p *pathIter) Next() (xdm.Item, bool, error) {
	for {
		if err := p.fr.dyn.CheckInterrupt(); err != nil {
			return nil, false, err
		}
		if p.cur == nil {
			ok, err := p.advance(false)
			if err != nil || !ok {
				return nil, false, err
			}
		}
		it, ok, err := p.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return it, true, nil
		}
		p.cur = nil
	}
}

// NextBatch implements BatchIter. While a streamed input is still being
// parsed, demand drops to item granularity: left prefetch is disabled and
// the fill returns as soon as it holds anything, so a batch never forces
// input beyond the items it delivers (short batches mean "pull again", so
// this is invisible to consumers). Once ingestion completes — or when there
// is no streamed input at all — batches fill normally.
func (p *pathIter) NextBatch(buf []xdm.Item) (int, error) {
	lazy := p.fr.dyn.streamingLazy()
	n := 0
	for n < len(buf) {
		if p.cur == nil {
			ok, err := p.advance(!lazy)
			if err != nil || !ok {
				return n, err
			}
		}
		k, err := nextBatch(p.cur, buf[n:])
		n += k
		if err != nil {
			p.releaseLeft()
			return n, err
		}
		if k == 0 {
			p.cur = nil
			continue
		}
		if lazy {
			break
		}
	}
	if err := p.fr.dyn.CheckInterruptN(n); err != nil {
		return n, err
	}
	return n, nil
}

// compileStep compiles one axis step against the context item.
func (c *compiler) compileStep(n *expr.Step) (seqFn, error) {
	return func(fr *Frame) Iter {
		it, ok := fr.ContextItem()
		if !ok {
			return errIter(xdm.Errf("XPDY0002", "no context item for axis step"))
		}
		node, isNode := it.(xdm.Node)
		if !isNode {
			return errIter(xdm.ErrType("axis step applied to an atomic value"))
		}
		return axisIter(fr.dyn, node, n.Axis, &n.Test)
	}, nil
}

// axisIter returns the nodes of an axis from a context node, filtered by
// the node test, in axis order (reverse axes deliver reverse document
// order; the enclosing path restores document order when required). dyn
// enables the morsel upgrade of large descendant scans; nil keeps every
// axis sequential.
func axisIter(dyn *Dynamic, n xdm.Node, axis expr.Axis, test *xtypes.NodeTest) Iter {
	if sn, ok := n.(*store.Node); ok && scansStore(axis) {
		s := new(storeScan)
		s.reset(dyn, sn, axis, test)
		return s
	}
	principal := axis.Principal()
	switch axis {
	case expr.AxisSelf:
		if test.MatchesNode(n, principal) {
			return singleIter(n)
		}
		return emptyIter

	case expr.AxisChild:
		return filterNodes(n.ChildrenOf(), test, principal)

	case expr.AxisAttribute:
		return filterNodes(n.AttributesOf(), test, principal)

	case expr.AxisParent:
		p := n.Parent()
		if p != nil && test.MatchesNode(p, principal) {
			return singleIter(p)
		}
		return emptyIter

	case expr.AxisAncestor, expr.AxisAncestorOrSelf:
		cur := n
		if axis == expr.AxisAncestor {
			cur = n.Parent()
		}
		return iterFunc(func() (xdm.Item, bool, error) {
			for cur != nil {
				c := cur
				cur = cur.Parent()
				if test.MatchesNode(c, principal) {
					return c, true, nil
				}
			}
			return nil, false, nil
		})

	case expr.AxisDescendant, expr.AxisDescendantOrSelf:
		return genericDescendantIter(n, axis == expr.AxisDescendantOrSelf, test, principal)

	case expr.AxisFollowingSibling, expr.AxisPrecedingSibling:
		p := n.Parent()
		if p == nil || n.Kind() == xdm.AttributeNode {
			return emptyIter
		}
		sibs := p.ChildrenOf()
		idx := -1
		for i, s := range sibs {
			if s.SameNode(n) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return emptyIter
		}
		var cand []xdm.Node
		if axis == expr.AxisFollowingSibling {
			cand = sibs[idx+1:]
		} else {
			// preceding-sibling in reverse document order
			for i := idx - 1; i >= 0; i-- {
				cand = append(cand, sibs[i])
			}
		}
		return filterNodes(cand, test, principal)
	}
	return emptyIter
}

// nodeSliceIter filters an already-listed node slice by the node test.
type nodeSliceIter struct {
	nodes     []xdm.Node
	test      *xtypes.NodeTest
	principal xdm.NodeKind
	i         int
}

func (s *nodeSliceIter) Next() (xdm.Item, bool, error) {
	for s.i < len(s.nodes) {
		n := s.nodes[s.i]
		s.i++
		if s.test.MatchesNode(n, s.principal) {
			return n, true, nil
		}
	}
	return nil, false, nil
}

// NextBatch implements BatchIter.
func (s *nodeSliceIter) NextBatch(buf []xdm.Item) (int, error) {
	n := 0
	for n < len(buf) && s.i < len(s.nodes) {
		nd := s.nodes[s.i]
		s.i++
		if s.test.MatchesNode(nd, s.principal) {
			buf[n] = nd
			n++
		}
	}
	return n, nil
}

func filterNodes(nodes []xdm.Node, test *xtypes.NodeTest, principal xdm.NodeKind) Iter {
	return &nodeSliceIter{nodes: nodes, test: test, principal: principal}
}

// storeScan enumerates the child, attribute and descendant axes of a stored
// node by id: it tests each candidate's kind and name on the store's arrays
// and boxes only a node it emits. The child axis follows next-sibling
// links. The other two walk an id range, since the array layout puts an
// element's attributes right after it and its descendants in (id, endID],
// attributes excluded. The range is also what makes a descendant scan
// morsel-parallel: contiguous id sub-ranges partition the work, and
// stitching their matches by sub-range order is document order.
//
// The child axis computes the next-sibling link of a delivered child only
// when the next child is demanded: on a lazily ingested document that link
// may require parsing past the child (for the last child, to the parent's
// end tag), so eager lookahead would force input the caller never asked
// for — the document's only child would drain the stream to EOF before
// being returned at all.
type storeScan struct {
	d         *store.Document
	cur, end  int32 // next candidate (-1 ends a child scan); a range ends after end
	self      int32 // the or-self context node, kept even as an attribute; else -1
	siblings  bool  // child axis: follow next-sibling links
	yielded   bool  // child axis: cur was consumed; advance to its sibling first
	skipAttrs bool  // descendant axes: attributes are not descendants
	test      *xtypes.NodeTest
	principal xdm.NodeKind
	dyn       *Dynamic // morsel upgrade for batch pulls; nil stays sequential

	out []xdm.Item // pending stitched output of the last parallel round
	oi  int
}

// scansStore reports whether storeScan serves the axis.
func scansStore(axis expr.Axis) bool {
	switch axis {
	case expr.AxisChild, expr.AxisAttribute, expr.AxisDescendant, expr.AxisDescendantOrSelf:
		return true
	}
	return false
}

// reset points the scan at one of scansStore's axes of a stored node.
func (s *storeScan) reset(dyn *Dynamic, n *store.Node, axis expr.Axis, test *xtypes.NodeTest) {
	d := n.D
	*s = storeScan{d: d, self: -1, test: test, principal: axis.Principal(), dyn: dyn}
	switch axis {
	case expr.AxisChild:
		s.cur, s.siblings = d.FirstChildID(n.ID), true
	case expr.AxisAttribute:
		s.cur, s.end = 0, -1
		if d.Kind(n.ID) == xdm.ElementNode {
			from, to := d.AttrRange(n.ID)
			s.cur, s.end = from, to-1
		}
	default:
		s.cur, s.end, s.skipAttrs = n.ID+1, d.EndID(n.ID), true
		if axis == expr.AxisDescendantOrSelf {
			s.cur, s.self = n.ID, n.ID
		}
	}
}

// next returns the id of the next node that passes the test, or -1.
func (s *storeScan) next() int32 {
	for {
		id := s.cur
		if s.siblings {
			if s.yielded && id >= 0 {
				id = s.d.NextSiblingID(id)
				s.cur = id
			}
			s.yielded = true
			if id < 0 {
				return -1
			}
		} else {
			if id > s.end {
				return -1
			}
			s.cur++
		}
		if s.keep(id) {
			return id
		}
	}
}

// keep tests one candidate id without boxing it.
func (s *storeScan) keep(id int32) bool {
	k := s.d.Kind(id)
	if k == xdm.AttributeNode && s.skipAttrs && id != s.self {
		return false
	}
	return s.test.Matches(k, s.d.ExpandedName(id), s.principal)
}

func (s *storeScan) serve(buf []xdm.Item) int {
	n := copy(buf, s.out[s.oi:])
	s.oi += n
	if s.oi >= len(s.out) {
		s.out, s.oi = nil, 0
	}
	return n
}

func (s *storeScan) Next() (xdm.Item, bool, error) {
	if s.oi < len(s.out) {
		var one [1]xdm.Item
		s.serve(one[:])
		return one[0], true, nil
	}
	if id := s.next(); id >= 0 {
		return &store.Node{D: s.d, ID: id}, true, nil
	}
	return nil, false, nil
}

// NextBatch implements BatchIter: the inner scan loop runs without any
// per-item interface dispatch — the whole point of the fast path. On a
// large remaining id range with morsel workers configured, the fill
// upgrades to parallel rounds: contiguous sub-ranges are scanned by the
// worker pool and the matches stitched back in range order (= document
// order); leftover matches queue on s.out for subsequent pulls. While a
// document is still being parsed a child scan stops after each item:
// discovering whether another child exists can force arbitrary input, and a
// short batch legitimately means "pull again", so demand stays
// item-granular until ingestion completes.
func (s *storeScan) NextBatch(buf []xdm.Item) (int, error) {
	for s.oi >= len(s.out) && s.morselReady() {
		ran, err := s.morselFill()
		if err != nil {
			return 0, err
		}
		if !ran {
			break
		}
	}
	if s.oi < len(s.out) {
		return s.serve(buf), nil
	}
	n := 0
	for n < len(buf) {
		id := s.next()
		if id < 0 {
			break
		}
		buf[n] = &store.Node{D: s.d, ID: id}
		n++
		if s.siblings && s.d.Lazy() {
			break
		}
	}
	return n, nil
}

// morselReady reports whether a parallel round is worth attempting: a pool
// is configured, the scan is an id range past any self node, the document
// is fully materialized (a lazy scan must not force input out of order),
// and at least two morsels of ids remain.
func (s *storeScan) morselReady() bool {
	return s.dyn != nil && s.dyn.Workers > 1 && !s.siblings && s.cur > s.self && !s.d.Lazy() &&
		int(s.end)-int(s.cur)+1 >= 2*descMorselIDs
}

// morselFill runs one parallel round over the next slice of the id range.
// ran=false (without error) means no extra workers were available; the
// caller falls back to the sequential fill for this pull.
func (s *storeScan) morselFill() (bool, error) {
	remaining := int(s.end) - int(s.cur) + 1
	chunks := (remaining + descMorselIDs - 1) / descMorselIDs
	extra, release := s.dyn.leaseExtra(chunks - 1)
	if extra == 0 {
		return false, nil
	}
	defer release()
	if max := (extra + 1) * descRoundChunks; chunks > max {
		chunks = max
	}
	base := s.cur
	parts, err := morselRound(s.dyn, extra, chunks, func(w *Dynamic, i int) ([]xdm.Item, error) {
		lo := base + int32(i*descMorselIDs)
		hi := lo + descMorselIDs - 1
		if hi > s.end {
			hi = s.end
		}
		var out []xdm.Item
		for id := lo; id <= hi; id++ {
			if id&1023 == 0 {
				if err := w.CheckInterruptN(1024); err != nil {
					return nil, err
				}
			}
			if s.keep(id) {
				out = append(out, &store.Node{D: s.d, ID: id})
			}
		}
		return out, nil
	})
	// The round covered [base, base+chunks*descMorselIDs), clamped to end.
	if next := int(base) + chunks*descMorselIDs; next > int(s.end) {
		s.cur = s.end + 1
	} else {
		s.cur = int32(next)
	}
	if err != nil {
		return true, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]xdm.Item, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	s.out, s.oi = out, 0
	return true, nil
}

// genericDescendantIter is the interface-only fallback (used by non-store
// node implementations in tests).
func genericDescendantIter(n xdm.Node, orSelf bool, test *xtypes.NodeTest, principal xdm.NodeKind) Iter {
	var stack []xdm.Node
	if orSelf {
		stack = append(stack, n)
	} else {
		kids := n.ChildrenOf()
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return iterFunc(func() (xdm.Item, bool, error) {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			kids := top.ChildrenOf()
			for i := len(kids) - 1; i >= 0; i-- {
				stack = append(stack, kids[i])
			}
			if test.MatchesNode(top, principal) {
				return top, true, nil
			}
		}
		return nil, false, nil
	})
}

// compileFilter compiles E[p1][p2]...: each predicate filters the result of
// the previous stage, with its own focus (item, position, size).
func (c *compiler) compileFilter(n *expr.Filter) (seqFn, error) {
	baseFn, err := c.compile(n.In)
	if err != nil {
		return nil, err
	}
	cur := baseFn
	for _, pred := range n.Preds {
		// A predicate that reads no focus has one value for every item, so
		// it is evaluated once (constFilter) — alike whether or not the
		// optimizer folded it to a literal.
		if f := new(expr.Analysis).Of(pred); !f.UsesContext && !f.Positional {
			pf, err := c.compile(pred)
			if err != nil {
				return nil, err
			}
			prev := cur
			cur = func(fr *Frame) Iter { return &constFilter{fr: fr, pred: pf, src: prev(fr)} }
			continue
		}
		keep, err := c.compilePredicate(pred)
		if err != nil {
			return nil, err
		}
		prev := cur
		memo := expr.Positional(pred)
		cur = func(fr *Frame) Iter {
			f := &filterIter{fr: fr, keep: keep}
			if memo {
				f.bi, f.lastFn = memoized(prev(fr))
			} else {
				f.bi = prev(fr)
			}
			return f
		}
	}
	return c.tag("filter", n, cur), nil
}

// compilePredicate compiles a filter predicate to a test of its focus. A
// predicate typed xs:boolean is a condition; any other is decided by its
// value, where a single number is a position test.
func (c *compiler) compilePredicate(pred expr.Expr) (condFn, error) {
	if t := expr.Infer(pred, nil); t.Item.Kind == xtypes.KAtomic && t.Item.Type == xdm.TBoolean {
		return c.compileCond(pred)
	}
	pf, err := c.compile(pred)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (bool, error) { return evalPredicate(pf(fr), fr.Position()) }, nil
}

// filterIter applies one compiled predicate with its own focus per input
// item. Batch pulls stage the input in a pooled scratch buffer and compact
// the keepers in place.
type filterIter struct {
	fr      *Frame
	keep    condFn
	bi      Iter
	lastFn  func() (int64, error) // nil unless the predicate reads its focus position or size
	pos     int64
	scratch []xdm.Item // borrowed from the pool on first batch pull
	done    bool
}

func (f *filterIter) Next() (xdm.Item, bool, error) {
	for {
		it, ok, err := f.bi.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.pos++
		keep, err := f.keep(f.fr.focus(it, f.pos, f.lastFn))
		if err != nil {
			return nil, false, err
		}
		if keep {
			return it, true, nil
		}
	}
}

func (f *filterIter) release() {
	if f.scratch != nil {
		f.fr.dyn.putBuf(f.scratch)
		f.scratch = nil
	}
}

// NextBatch implements BatchIter.
func (f *filterIter) NextBatch(buf []xdm.Item) (int, error) {
	if f.done {
		return 0, nil
	}
	if f.scratch == nil {
		f.scratch = f.fr.dyn.getBuf()
	}
	for {
		in := f.scratch
		if len(buf) < len(in) {
			in = in[:len(buf)] // keepers must fit the caller's buffer
		}
		k, err := nextBatch(f.bi, in)
		n := 0
		for i := 0; i < k; i++ {
			it := in[i]
			f.pos++
			keep, kerr := f.keep(f.fr.focus(it, f.pos, f.lastFn))
			if kerr != nil {
				f.done = true
				f.release()
				return n, kerr
			}
			if keep {
				buf[n] = it
				n++
			}
		}
		if err != nil || k == 0 {
			f.done = true
			f.release()
			return n, err
		}
		if n > 0 {
			return n, nil
		}
		// A full input batch with no keepers: pull again rather than
		// returning a misleading n == 0 (which would signal the end).
	}
}

// constFilter applies a predicate that reads no focus. It is decided at the
// input's first item, so that an empty input evaluates nothing, as with a
// per-item predicate. A number k selects the k-th item and stops pulling
// input there — the item-level skip() of E3/E4; any other value keeps every
// item or none.
type constFilter struct {
	fr      *Frame
	pred    seqFn
	src     Iter
	decided bool
	all     bool
	k, pos  int64
}

func (f *constFilter) Next() (xdm.Item, bool, error) {
	for !f.decided || f.all || f.pos < f.k {
		it, ok, err := f.src.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.pos++
		if !f.decided {
			f.decided = true
			if f.k, f.all, err = constPredicate(f.pred(f.fr)); err != nil {
				return nil, false, err
			}
		}
		if f.all || f.pos == f.k {
			return it, true, nil
		}
	}
	return nil, false, nil
}

// constPredicate decides a predicate that reads no focus: a single number
// selects the item at that position (none when it is no position), any
// other value keeps every item or none by its effective boolean value.
func constPredicate(it Iter) (k int64, all bool, err error) {
	first, more, err := ebvPrefix(it)
	if err != nil || first == nil {
		return 0, false, err
	}
	if a, ok := first.(xdm.Atomic); ok && !more && a.T.IsNumeric() {
		if f := a.AsFloat(); f >= 1 && f < 1<<62 && f == math.Trunc(f) {
			return int64(f), false, nil
		}
		return 0, false, nil
	}
	all, err = xdm.EffectiveBooleanItem(first, more)
	return 0, all, err
}

// evalPredicate decides a predicate's value: a single number is a position
// test, anything else is taken by effective boolean value.
func evalPredicate(it Iter, pos int64) (bool, error) {
	first, more, err := ebvPrefix(it)
	if err != nil || first == nil {
		return false, err
	}
	if a, ok := first.(xdm.Atomic); ok && !more && a.T.IsNumeric() {
		return a.AsFloat() == float64(pos), nil
	}
	return xdm.EffectiveBooleanItem(first, more)
}
