package runtime

import (
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
	// at run time — the compiled policy first, then the cost model when the
	// policy is Auto. The resolved choice lands on the operator's profile
	// row, so explain output shows which strategy ran.
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
		strat := fr.dyn.pathDecision(jp, sn.D, policy, opID, fb)
		switch strat {
		case optimizer.StrategyBinaryJoin, optimizer.StrategyTwigJoin:
			return jp.run(fr, sn, strat, opID, fb)
		default:
			return navFn(fr)
		}
	}
	tagged, id := c.tagID("path", n, fn)
	opID = id
	c.ops[id].Strategy = policy.String()
	return tagged, nil
}

// compileNavPath is the navigation implementation of a path expression.
func (c *compiler) compileNavPath(n *expr.Path) (seqFn, error) {
	lf, err := c.compile(n.L)
	if err != nil {
		return nil, err
	}
	rf, err := c.compile(n.R)
	if err != nil {
		return nil, err
	}
	noReorder := n.NoReorder && !c.opts.Eager

	raw := func(fr *Frame) Iter {
		p := &pathIter{fr: fr, rf: rf}
		p.lseq.src = lf(fr)
		p.lcur.seq = &p.lseq
		p.li = &p.lcur
		p.lastFn = p.last
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

// pathIter is the streaming core of E1/E2: one focused evaluation of the
// right side per left-hand node, outputs concatenated. Batch pulls forward
// the demand to the current right-side iterator, so chains of steps move
// chunks end to end.
type pathIter struct {
	fr     *Frame
	rf     seqFn
	li     Iter // cursor over the left input
	lastFn func() (int64, error)
	cur    Iter
	pos    int64

	// The memoized left input and the cursor li reads it through live inside
	// the iterator: one allocation per path instantiation instead of three.
	lseq LazySeq
	lcur lazyCursor

	// Batch-mode left prefetch. Like flworIter, a left-input error found
	// while prefetching is stashed until the outputs of the nodes fetched
	// before it have all been delivered, so errors surface in the same
	// order as item-at-a-time evaluation.
	pending []xdm.Item
	pi, pn  int
	stash   error
	ldone   bool
}

// last is fn:last() for the right side's focus: the left input's length.
func (p *pathIter) last() (int64, error) {
	n, err := p.lseq.Len()
	return int64(n), err
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
	if !it.IsNode() {
		p.releaseLeft()
		return false, xdm.ErrType("path step applied to an atomic value")
	}
	p.pos++
	p.cur = p.rf(p.fr.focus(it, p.pos, p.lastFn))
	return true, nil
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
	axis, test := n.Axis, n.Test
	return func(fr *Frame) Iter {
		it, ok := fr.ContextItem()
		if !ok {
			return errIter(xdm.Errf("XPDY0002", "no context item for axis step"))
		}
		node, isNode := it.(xdm.Node)
		if !isNode {
			return errIter(xdm.ErrType("axis step applied to an atomic value"))
		}
		return axisIter(fr.dyn, node, axis, test)
	}, nil
}

// axisIter returns the nodes of an axis from a context node, filtered by
// the node test, in axis order (reverse axes deliver reverse document
// order; the enclosing path restores document order when required). dyn
// enables the morsel upgrade of large descendant scans; nil keeps every
// axis sequential.
func axisIter(dyn *Dynamic, n xdm.Node, axis expr.Axis, test xtypes.NodeTest) Iter {
	principal := axis.Principal()
	switch axis {
	case expr.AxisSelf:
		if test.MatchesNode(n, principal) {
			return singleIter(n)
		}
		return emptyIter

	case expr.AxisChild:
		if sn, ok := n.(*store.Node); ok {
			return storeChildIter(sn, test, principal)
		}
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
		if sn, ok := n.(*store.Node); ok {
			return storeDescendantIter(dyn, sn, axis == expr.AxisDescendantOrSelf, test, principal)
		}
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
	test      xtypes.NodeTest
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

func filterNodes(nodes []xdm.Node, test xtypes.NodeTest, principal xdm.NodeKind) Iter {
	return &nodeSliceIter{nodes: nodes, test: test, principal: principal}
}

// storeChildScan walks first-child/next-sibling links without allocating
// the child slice. The next-sibling link of a delivered child is computed
// only when the next child is demanded: on a lazily ingested document that
// link may require parsing past the child (for the last child, to the
// parent's end tag), so eager lookahead would force input the caller never
// asked for — the document's only child would drain the stream to EOF
// before being returned at all.
type storeChildScan struct {
	d         *store.Document
	cur       int32 // next candidate child id, or -1 when exhausted
	yielded   bool  // cur was delivered; advance to its sibling before use
	test      xtypes.NodeTest
	principal xdm.NodeKind
}

func storeChildIter(n *store.Node, test xtypes.NodeTest, principal xdm.NodeKind) Iter {
	return &storeChildScan{d: n.D, cur: n.D.FirstChildID(n.ID), test: test, principal: principal}
}

// scan returns the next matching child, or nil at the end.
func (s *storeChildScan) scan() *store.Node {
	for {
		if s.yielded {
			s.cur = s.d.NextSiblingID(s.cur)
			s.yielded = false
		}
		if s.cur < 0 {
			return nil
		}
		child := &store.Node{D: s.d, ID: s.cur}
		s.yielded = true
		if s.test.MatchesNode(child, s.principal) {
			return child
		}
	}
}

func (s *storeChildScan) Next() (xdm.Item, bool, error) {
	if n := s.scan(); n != nil {
		return n, true, nil
	}
	return nil, false, nil
}

// NextBatch implements BatchIter. While the document is still being parsed
// the fill stops after each item: discovering whether another child exists
// can force arbitrary input, and a short batch legitimately means "pull
// again", so demand stays item-granular until ingestion completes.
func (s *storeChildScan) NextBatch(buf []xdm.Item) (int, error) {
	n := 0
	for n < len(buf) {
		nd := s.scan()
		if nd == nil {
			break
		}
		buf[n] = nd
		n++
		if s.d.Lazy() {
			break
		}
	}
	return n, nil
}

// storeDescScan exploits the array layout: the descendants of a node are
// exactly the id range (id, endID], minus attribute nodes — a linear scan
// with no tree navigation at all. The range structure is also what makes
// the scan morsel-parallel: contiguous id sub-ranges partition the work,
// and stitching their matches by sub-range order is document order.
type storeDescScan struct {
	d         *store.Document
	cur, end  int32
	first     bool
	test      xtypes.NodeTest
	principal xdm.NodeKind
	dyn       *Dynamic // morsel upgrade for batch pulls; nil stays sequential

	out []xdm.Item // pending stitched output of the last parallel round
	oi  int
}

func storeDescendantIter(dyn *Dynamic, n *store.Node, orSelf bool, test xtypes.NodeTest, principal xdm.NodeKind) Iter {
	cur := n.ID
	if !orSelf {
		cur++
	}
	return &storeDescScan{d: n.D, cur: cur, end: n.D.EndID(n.ID), first: orSelf,
		test: test, principal: principal, dyn: dyn}
}

// scan advances past skipped ids and returns the next matching node, or nil.
func (s *storeDescScan) scan() *store.Node {
	for s.cur <= s.end {
		id := s.cur
		s.cur++
		if !s.first && s.d.Kind(id) == xdm.AttributeNode {
			continue
		}
		s.first = false
		node := &store.Node{D: s.d, ID: id}
		if s.test.MatchesNode(node, s.principal) {
			return node
		}
	}
	return nil
}

func (s *storeDescScan) serve(buf []xdm.Item) int {
	n := copy(buf, s.out[s.oi:])
	s.oi += n
	if s.oi >= len(s.out) {
		s.out, s.oi = nil, 0
	}
	return n
}

func (s *storeDescScan) Next() (xdm.Item, bool, error) {
	if s.oi < len(s.out) {
		it := s.out[s.oi]
		s.oi++
		if s.oi >= len(s.out) {
			s.out, s.oi = nil, 0
		}
		return it, true, nil
	}
	if n := s.scan(); n != nil {
		return n, true, nil
	}
	return nil, false, nil
}

// NextBatch implements BatchIter: the inner scan loop runs without any
// per-item interface dispatch — the whole point of the fast path. On a
// large remaining id range with morsel workers configured, the fill
// upgrades to parallel rounds: contiguous sub-ranges are scanned by the
// worker pool and the matches stitched back in range order (= document
// order); leftover matches queue on s.out for subsequent pulls.
func (s *storeDescScan) NextBatch(buf []xdm.Item) (int, error) {
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
		nd := s.scan()
		if nd == nil {
			break
		}
		buf[n] = nd
		n++
	}
	return n, nil
}

// morselReady reports whether a parallel round is worth attempting: a pool
// is configured, the scan is past any self node, the document is fully
// materialized (a lazy scan must not force input out of order), and at
// least two morsels of ids remain.
func (s *storeDescScan) morselReady() bool {
	return s.dyn != nil && s.dyn.Workers > 1 && !s.first && !s.d.Lazy() &&
		int(s.end)-int(s.cur)+1 >= 2*descMorselIDs
}

// morselFill runs one parallel round over the next slice of the id range.
// ran=false (without error) means no extra workers were available; the
// caller falls back to the sequential fill for this pull.
func (s *storeDescScan) morselFill() (bool, error) {
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
			if s.d.Kind(id) == xdm.AttributeNode {
				continue
			}
			node := &store.Node{D: s.d, ID: id}
			if s.test.MatchesNode(node, s.principal) {
				out = append(out, node)
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
func genericDescendantIter(n xdm.Node, orSelf bool, test xtypes.NodeTest, principal xdm.NodeKind) Iter {
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
		// Positional fast path: a literal integer predicate [k] selects one
		// item and stops pulling input — the item-level skip() of E3/E4.
		if lit, ok := pred.(*expr.Literal); ok && lit.Val.T == xdm.TInteger {
			k := lit.Val.I
			prev := cur
			cur = func(fr *Frame) Iter {
				if k < 1 {
					return emptyIter
				}
				src := prev(fr)
				done := false
				return iterFunc(func() (xdm.Item, bool, error) {
					if done {
						return nil, false, nil
					}
					done = true
					var it xdm.Item
					var ok bool
					var err error
					for i := int64(0); i < k; i++ {
						it, ok, err = src.Next()
						if err != nil || !ok {
							return nil, false, err
						}
					}
					return it, true, nil
				})
			}
			continue
		}
		predFn, err := c.compile(pred)
		if err != nil {
			return nil, err
		}
		prev := cur
		pf := predFn
		cur = func(fr *Frame) Iter {
			base := NewLazySeq(prev(fr))
			lastFn := func() (int64, error) {
				n, err := base.Len()
				return int64(n), err
			}
			return &filterIter{fr: fr, pf: pf, bi: base.Iterator(), lastFn: lastFn}
		}
	}
	return c.tag("filter", n, cur), nil
}

// filterIter applies one compiled predicate with its own focus per input
// item. Batch pulls stage the input in a pooled scratch buffer and compact
// the keepers in place.
type filterIter struct {
	fr      *Frame
	pf      seqFn
	bi      Iter
	lastFn  func() (int64, error)
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
		keep, err := evalPredicate(f.pf, f.fr.focus(it, f.pos, f.lastFn), f.pos)
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
			keep, kerr := evalPredicate(f.pf, f.fr.focus(it, f.pos, f.lastFn), f.pos)
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

// evalPredicate decides a predicate: a single numeric result is a position
// test, anything else is taken by effective boolean value.
func evalPredicate(pf seqFn, fr *Frame, pos int64) (bool, error) {
	it := pf(fr)
	first, ok, err := it.Next()
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	if a, isAtomic := first.(xdm.Atomic); isAtomic && a.T.IsNumeric() {
		if _, extra, err := it.Next(); err != nil {
			return false, err
		} else if !extra {
			return a.AsFloat() == float64(pos), nil
		}
		// A multi-item numeric sequence: positional range semantics
		// (1 to 2): keep if any value equals the position.
		if a.AsFloat() == float64(pos) {
			return true, nil
		}
		for {
			nx, more, err := it.Next()
			if err != nil {
				return false, err
			}
			if !more {
				return false, nil
			}
			if na, isA := nx.(xdm.Atomic); isA && na.T.IsNumeric() && na.AsFloat() == float64(pos) {
				return true, nil
			}
		}
	}
	if first.IsNode() {
		return true, nil
	}
	// Single non-numeric atomic: EBV.
	if _, extra, err := it.Next(); err != nil {
		return false, err
	} else if extra {
		return false, xdm.ErrType("predicate yields a multi-item atomic sequence")
	}
	return xdm.EffectiveBooleanItem(first)
}
