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
	steps := extractJoinPlan(n)
	if steps == nil {
		ch := c.chainOf(n)
		if ch != nil {
			navFn = ch.iter(navFn)
		}
		fn, id := c.tagID("path", n, navFn)
		c.ops[id].Strategy = optimizer.StrategyNavigation.String()
		if ch != nil {
			ch.op = id
		}
		return fn, nil
	}
	// Join-eligible: both compilations are kept and one operator dispatches
	// at run time between navigation and the path join. Its consumers walk
	// the join's leaves by id, as they walk a chain.
	jpath := &joinPath{chain: steps, policy: c.opts.Strategy, fb: c.fb}
	fn := func(fr *Frame) Iter {
		if _, haveCtx := fr.ContextItem(); !haveCtx {
			return errIter(xdm.Errf("XPDY0002", "no context item for '/'"))
		}
		j, err := jpath.open(fr)
		switch {
		case err != nil:
			return errIter(err)
		case j == nil:
			return navFn(fr) // non-store contexts always navigate
		}
		return j
	}
	tagged, id := c.tagID("path", n, fn)
	jpath.op = id
	c.ops[id].Strategy = jpath.policy.String()
	c.chains[n] = &chain{varID: -1, op: id, join: jpath}
	return tagged, nil
}

// compileNavPath is the navigation implementation of a path expression. A
// right side that is an axis step is applied to each left node directly;
// any other right side is evaluated under a focus per left node. The left
// input is memoized, for fn:last, only when the right side reads its focus
// size.
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
	var st *stepTest
	if step != nil {
		st = newStepTest(step)
	}
	memo := step == nil && expr.ReadsLast(n.R)
	noReorder := n.NoReorder && !c.opts.Eager

	raw := func(fr *Frame) Iter {
		p := &pathIter{fr: fr, rf: rf, step: st}
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
		seq, err := drain(fr.dyn, raw(fr))
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

// maxChain bounds a chain's steps: a consumer's cursor lives on its stack.
const maxChain = 8

// chain is a step chain (DESIGN §13): "/", "." or a variable, then
// predicate-free child, attribute or self steps after at most a leading
// descendant step (or "//x"). Walked depth-first over store ids it yields
// document order without duplicates: each later step starts from nodes in
// disjoint subtrees, in order. It serves when its start is one stored node.
type chain struct {
	root  bool // starts at the root of the context item's tree
	varID int  // starts at this variable's one item; -1 for "." and "/"
	steps []*stepTest
	op    int  // the path's profiling id; -1 for a bare step
	par   bool // one descendant step, which morsel workers split
	// join, when set, is a join-eligible path's dispatch, walked in place
	// of steps where the path join serves.
	join *joinPath
}

// chainOf recognizes e as a chain and records it for e's consumers; nil
// when e is none, and always under the eager engine.
func (c *compiler) chainOf(e expr.Expr) *chain {
	if c.opts.Eager {
		return nil
	}
	var rev []*expr.Step
	top := e
	for p, ok := e.(*expr.Path); ok; p, ok = e.(*expr.Path) {
		s, isStep := p.R.(*expr.Step)
		if !isStep {
			return nil
		}
		rev, e = append(rev, s), p.L
	}
	ch := &chain{varID: -1, op: -1}
	switch n := e.(type) {
	case *expr.Step:
		rev = append(rev, n)
	case *expr.Root:
		ch.root = true
	case *expr.VarRef:
		ch.varID, _ = c.resolve(n.Name)
	case *expr.ContextItem:
	default:
		return nil
	}
	desc := false
	for i := len(rev) - 1; i >= 0; i-- {
		s := rev[i]
		if s.Axis == expr.AxisDescendantOrSelf && s.Test.Kind == xtypes.TestAnyKind && i > 0 && rev[i-1].Axis == expr.AxisChild {
			i-- // "//x" is descendant::x
			s = &expr.Step{Base: rev[i].Base, Axis: expr.AxisDescendant, Test: rev[i].Test}
		}
		switch {
		case s.Axis == expr.AxisDescendant || s.Axis == expr.AxisDescendantOrSelf:
			if desc = true; len(ch.steps) > 0 {
				return nil
			}
		case s.Axis == expr.AxisChild && desc, !scansStore(s.Axis):
			return nil // under a descendant step, nested matches would interleave their children
		}
		ch.steps = append(ch.steps, newStepTest(s))
	}
	if len(ch.steps) == 0 || len(ch.steps) > maxChain {
		return nil
	}
	ch.par = len(ch.steps) == 1 && desc
	c.chains[top] = ch
	return ch
}

// start is the chain's start node in fr; ok=false when it is not one
// stored node. A variable qualifies only once its value is materialized
// (a for variable, a parameter), so the test pulls nothing.
func (ch *chain) start(fr *Frame) (d *store.Document, id int32, ok bool) {
	var it xdm.Item
	if ch.varID >= 0 {
		v := fr.lookup(ch.varID)
		if v.src != nil || v.err != nil || len(v.items) != 1 {
			return nil, 0, false
		}
		it = v.items[0]
	} else if it, ok = fr.ContextItem(); !ok {
		return nil, 0, false
	}
	n, ok := it.(*store.Node)
	if !ok {
		return nil, 0, false
	}
	if ch.root {
		return n.D, 0, true // node 0 is every stored tree's root
	}
	return n.D, n.ID, true
}

// walk reads the chain, until visit stops it, on a cursor on the caller's
// stack: visit gets each node by id, unboxed. ok=false leaves the caller
// to read the compiled expression: the start is not one stored node,
// morsel workers would split the scan, or a join-eligible path navigates.
// A profiled walk counts on the path's row as its iterator would.
func (ch *chain) walk(fr *Frame, visit func(d *store.Document, id int32) (stop bool, err error)) (ok bool, err error) {
	_, ok, err = ch.walkN(fr, visit)
	return ok, err
}

// walkN is walk, also returning how many nodes visit saw.
func (ch *chain) walkN(fr *Frame, visit func(d *store.Document, id int32) (stop bool, err error)) (n int64, ok bool, err error) {
	if ch == nil || ch.par && fr.dyn.Workers > 1 {
		return 0, false, nil
	}
	if ch.join != nil {
		ok, n, err = ch.join.walk(fr, visit)
	} else {
		ok, n, err = ch.walkSteps(fr, visit)
	}
	if p := fr.dyn.Prof; p != nil && ok && ch.op >= 0 {
		p.ops[ch.op].starts.Add(1)
		p.ops[ch.op].items.Add(n)
	}
	return n, ok, err
}

// walkSteps is walk over the chain's steps.
func (ch *chain) walkSteps(fr *Frame, visit func(d *store.Document, id int32) (stop bool, err error)) (ok bool, n int64, err error) {
	d, id, ok := ch.start(fr)
	if !ok {
		return false, 0, nil
	}
	var arr [maxChain]storeScan
	scans := arr[:len(ch.steps)]
	cur := chainCursor{dyn: fr.dyn, d: d, steps: ch.steps}
	cur.open(scans, id)
	for id := cur.next(scans); id >= 0; id = cur.next(scans) {
		n++
		stop := false
		if err = fr.dyn.CheckInterrupt(); err == nil {
			stop, err = visit(d, id)
		}
		if stop || err != nil {
			break
		}
	}
	return true, n, err
}

// exists walks the chain to its first node. found is also the effective
// boolean value, the chain's items being nodes.
func (ch *chain) exists(fr *Frame) (found, ok bool, err error) {
	ok, err = ch.walk(fr, func(*store.Document, int32) (bool, error) { found = true; return true, nil })
	return found, ok, err
}

// iter is the chain's iterator form: the cursor on the heap, or fallback's
// iterator where the start is not one stored node.
func (ch *chain) iter(fallback seqFn) seqFn {
	return func(fr *Frame) Iter {
		d, id, ok := ch.start(fr)
		if !ok {
			return fallback(fr)
		}
		it := &chainIter{chainCursor: chainCursor{dyn: fr.dyn, d: d, steps: ch.steps}}
		if it.scans = it.one[:]; len(ch.steps) > 1 {
			it.scans = make([]storeScan, len(ch.steps))
		}
		it.open(it.scans, id)
		return it
	}
}

// chainCursor walks a chain depth-first, one scan per step: scans[i] runs
// step i from scans[i-1]'s last node, and scans[:depth] are positioned.
// The scans are passed in, not held, so a consumer's stay on its stack.
type chainCursor struct {
	dyn   *Dynamic
	d     *store.Document
	steps []*stepTest
	depth int
}

func (c *chainCursor) open(scans []storeScan, id int32) {
	scans[0].reset(c.dyn, c.d, id, c.steps[0])
	c.depth = 1
}

// descend positions every scan under the deepest one with nodes left;
// false when the chain is done.
func (c *chainCursor) descend(scans []storeScan) bool {
	for c.depth < len(scans) {
		if c.depth == 0 {
			return false
		}
		id := scans[c.depth-1].next()
		if id < 0 {
			c.depth--
			continue
		}
		scans[c.depth].reset(c.dyn, c.d, id, c.steps[c.depth])
		c.depth++
	}
	return c.depth > 0
}

// next returns the id of the chain's next node, or -1 at its end.
func (c *chainCursor) next(scans []storeScan) int32 {
	for c.descend(scans) {
		if id := scans[c.depth-1].next(); id >= 0 {
			return id
		}
		c.depth--
	}
	return -1
}

// chainIter is the cursor on the heap. Its last scan boxes the nodes it
// emits, and splits a large descendant range into morsels as a step does.
type chainIter struct {
	chainCursor
	scans []storeScan
	one   [1]storeScan // a one-step chain's scan, in the same allocation
}

func (c *chainIter) Next() (xdm.Item, bool, error) {
	if err := c.dyn.CheckInterrupt(); err != nil {
		return nil, false, err
	}
	for c.descend(c.scans) {
		if it, ok, err := c.scans[c.depth-1].Next(); ok || err != nil {
			return it, ok, err
		}
		c.depth--
	}
	return nil, false, nil
}

// markDrain implements drainer: the last scan emits the chain's nodes.
func (c *chainIter) markDrain() { c.scans[len(c.scans)-1].drain = true }

// pathIter is the streaming core of E1/E2: the right side applied per
// left-hand node, outputs concatenated. A drain mark reaches each right-side
// iterator; the left input is not marked.
type pathIter struct {
	fr     *Frame
	rf     seqFn     // the right side under a focus; nil for a step
	step   *stepTest // the right side when it is an axis step
	scan   storeScan // the step's one scan, re-pointed at each stored left node
	li     Iter      // cursor over the left input
	lastFn func() (int64, error)
	cur    Iter
	pos    int64
	drain  bool
}

// memoized keeps an input so that fn:last() can ask for its length.
func memoized(src Iter) (Iter, func() (int64, error)) {
	seq := NewLazySeq(src)
	return seq.Iterator(), func() (int64, error) {
		n, err := seq.Len()
		return int64(n), err
	}
}

// advance focuses the right side on the next left-hand node; ok=false at
// the end of the left input.
func (p *pathIter) advance() (bool, error) {
	it, ok, err := p.li.Next()
	if err != nil || !ok {
		return false, err
	}
	node, isNode := it.(xdm.Node)
	if !isNode {
		return false, xdm.ErrType("path step applied to an atomic value")
	}
	if p.step != nil {
		p.cur = p.applyStep(node)
	} else {
		p.pos++
		p.cur = p.rf(p.fr.focus(it, p.pos, p.lastFn))
	}
	if p.drain {
		markDrain(p.cur)
	}
	return true, nil
}

// applyStep applies the right-side step to one left node. A stored node
// re-points the path's one scan, so the step allocates nothing per node.
func (p *pathIter) applyStep(n xdm.Node) Iter {
	if sn, ok := n.(*store.Node); ok && scansStore(p.step.axis) {
		p.scan.reset(p.fr.dyn, sn.D, sn.ID, p.step)
		return &p.scan
	}
	return axisIter(p.fr.dyn, n, p.step)
}

func (p *pathIter) Next() (xdm.Item, bool, error) {
	for {
		if err := p.fr.dyn.CheckInterrupt(); err != nil {
			return nil, false, err
		}
		if p.cur == nil {
			ok, err := p.advance()
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

// markDrain implements drainer.
func (p *pathIter) markDrain() {
	p.drain = true
	if p.cur != nil {
		markDrain(p.cur)
	}
}

// compileStep compiles one axis step against the context item.
func (c *compiler) compileStep(n *expr.Step) (seqFn, error) {
	c.chainOf(n) // a bare step's consumers walk it; its iterator is axisIter's scan
	st := newStepTest(n)
	return func(fr *Frame) Iter {
		it, ok := fr.ContextItem()
		if !ok {
			return errIter(xdm.Errf("XPDY0002", "no context item for axis step"))
		}
		node, isNode := it.(xdm.Node)
		if !isNode {
			return errIter(xdm.ErrType("axis step applied to an atomic value"))
		}
		return axisIter(fr.dyn, node, st)
	}, nil
}

// axisIter returns the nodes of an axis from a context node, filtered by
// the node test, in axis order (reverse axes deliver reverse document
// order; the enclosing path restores document order when required). dyn
// enables the morsel upgrade of large descendant scans; nil keeps every
// axis sequential. A streamed constructed node is materialized first, so
// the downward axes always scan the store.
func axisIter(dyn *Dynamic, n xdm.Node, st *stepTest) Iter {
	if s, ok := n.(*StreamedNode); ok {
		m, err := s.materialize()
		if err != nil {
			return errIter(err)
		}
		n = m
	}
	axis, test := st.axis, st.test
	if sn, ok := n.(*store.Node); ok && scansStore(axis) {
		s := new(storeScan)
		s.reset(dyn, sn.D, sn.ID, st)
		return s
	}
	principal := axis.Principal()
	switch axis {
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
		step, end := 1, len(sibs)
		if axis == expr.AxisPrecedingSibling {
			step, end = -1, -1 // reverse document order
		}
		var out xdm.Sequence
		for i := idx + step; i != end; i += step {
			if test.MatchesNode(sibs[i], principal) {
				out = append(out, sibs[i])
			}
		}
		return newSliceIter(out)
	}
	return emptyIter
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
	v         *store.View // d's lock-free view once it is complete; nil while it is parsed
	r         *nameRes    // the step's test, resolved against d's name pool
	cur, end  int32       // next candidate (-1 ends a child scan); a range ends after end
	self      int32       // the or-self context node, kept even as an attribute; else -1
	siblings  bool        // child axis: follow next-sibling links
	yielded   bool        // child axis: cur was consumed; advance to its sibling first
	skipAttrs bool        // descendant axes: attributes are not descendants
	drain     bool        // marked: its consumer reads it to the end (kept across reset)
	dyn       *Dynamic    // morsel rounds of a marked scan; nil stays sequential

	out []xdm.Item // pending stitched output of the last parallel round
	oi  int
}

// scansStore reports whether storeScan serves the axis.
func scansStore(axis expr.Axis) bool {
	switch axis {
	case expr.AxisSelf, expr.AxisChild, expr.AxisAttribute, expr.AxisDescendant, expr.AxisDescendantOrSelf:
		return true
	}
	return false
}

// reset points the scan at one of scansStore's axes of stored node id. On
// a complete document whose pool passes no name of the test, the scan is
// empty and visits no node.
func (s *storeScan) reset(dyn *Dynamic, d *store.Document, id int32, t *stepTest) {
	// Field by field: a chain resets a scan per parent node, and a
	// composite literal would be built aside and copied in whole.
	s.d, s.v, s.r, s.dyn = d, d.View(), t.resolve(d), dyn
	s.self, s.siblings, s.yielded, s.skipAttrs = -1, false, false, false
	s.out, s.oi = nil, 0
	if s.v != nil && s.r.none {
		s.cur, s.end = 0, -1
		return
	}
	switch t.axis {
	case expr.AxisChild:
		s.siblings = true
		if s.v != nil {
			s.cur = s.v.FirstChildID(id)
		} else {
			s.cur = d.FirstChildID(id)
		}
	case expr.AxisSelf:
		s.cur, s.end = id, id
	case expr.AxisAttribute:
		s.cur, s.end = 0, -1
		if d.Kind(id) == xdm.ElementNode {
			from, to := d.AttrRange(id)
			s.cur, s.end = from, to-1
		}
	default:
		s.cur, s.skipAttrs = id+1, true
		if s.v != nil {
			s.end = s.v.EndID(id)
		} else {
			s.end = d.EndID(id)
		}
		if t.axis == expr.AxisDescendantOrSelf {
			s.cur, s.self = id, id
		}
	}
}

// next returns the id of the next node that passes the test, or -1.
func (s *storeScan) next() int32 {
	for {
		id := s.cur
		if s.siblings {
			if s.yielded && id >= 0 {
				if s.v != nil {
					id = s.v.NextSiblingID(id)
				} else {
					id = s.d.NextSiblingID(id)
				}
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

// keep tests one candidate id without boxing it: its kind, then its name
// by pool index.
func (s *storeScan) keep(id int32) bool {
	var k xdm.NodeKind
	var n int32
	if s.v != nil {
		k, n = s.v.Kind(id), s.v.NameIndex(id)
	} else {
		k, n = s.d.KindName(id)
	}
	if k == xdm.AttributeNode && s.skipAttrs && id != s.self {
		return false
	}
	return s.r.passes(s.d, id, k, n)
}

// Next runs a marked scan's parallel rounds: on a large remaining id range
// with morsel workers configured, contiguous sub-ranges are scanned by the
// worker pool and the matches stitched back in range order (= document
// order), queued on s.out for the following pulls. A refused lease ends
// the upgrade: the rest of the range is read here, one id at a time, so a
// busy pool is asked once rather than at every pull.
func (s *storeScan) Next() (xdm.Item, bool, error) {
	for s.drain && s.oi >= len(s.out) && s.morselReady() {
		ran, err := s.morselFill()
		if err != nil {
			return nil, false, err
		}
		s.drain = ran
	}
	if s.oi < len(s.out) {
		it := s.out[s.oi]
		if s.oi++; s.oi == len(s.out) {
			s.out, s.oi = nil, 0
		}
		return it, true, nil
	}
	if id := s.next(); id >= 0 {
		return s.d.Node(id), true, nil
	}
	return nil, false, nil
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
// ran=false (without error) means no extra workers were available.
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
		h := s.d.Handles()
		defer h.Pay()
		for id := lo; id <= hi; id++ {
			if err := w.CheckInterrupt(); err != nil {
				return nil, err
			}
			if s.keep(id) {
				out = append(out, h.Node(id))
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
		facts := new(expr.Analysis).Of(pred)
		if !facts.UsesContext && !facts.Positional {
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
		prev, memo := cur, facts.ReadsLast
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
	ch := c.chains[pred]
	return func(fr *Frame) (bool, error) {
		if found, ok, err := ch.exists(fr); ok {
			return found, err
		}
		return evalPredicate(pf(fr), fr.Position())
	}, nil
}

// filterIter applies one compiled predicate with its own focus per input
// item, one frame re-pointed at each, and pulls its input an item at a
// time.
type filterIter struct {
	fr     *Frame
	focus  Frame // re-pointed at each item (see Frame)
	keep   condFn
	bi     Iter
	lastFn func() (int64, error) // nil unless the predicate reads its focus position or size
	pos    int64
}

func (f *filterIter) Next() (xdm.Item, bool, error) {
	for {
		it, ok, err := f.bi.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := f.keep(f.at(it))
		if err != nil {
			return nil, false, err
		}
		if keep {
			return it, true, nil
		}
	}
}

// at focuses the filter's one frame on the next item: the frame is built
// at the first item, and only the item and its position change after.
func (f *filterIter) at(it xdm.Item) *Frame {
	if f.pos++; f.pos == 1 {
		f.focus = Frame{parent: f.fr, dyn: f.fr.dyn, id: -1, hasFocus: true, ctxLast: f.lastFn}
	}
	f.focus.ctxItem, f.focus.ctxPos = it, f.pos
	return &f.focus
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
