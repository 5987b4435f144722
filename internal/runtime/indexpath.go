package runtime

import (
	"sync"

	"xqgo/internal/expr"
	"xqgo/internal/store"
	"xqgo/internal/structjoin"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Index-accelerated path evaluation: descendant-axis path chains over
// plain name tests (//a//b, /doc//a/b …) can be evaluated over a
// per-document name index instead of navigation — the "navigation- vs
// index-based processing" trade-off the paper surveys — with the holistic
// twig join (one pass over all posting lists, no intermediates).
// Whether it or navigation runs is decided per operator and per document by
// the cost model (strategy.go), unless forced by Options.Strategy. Indexes
// are built lazily per document and cached on the dynamic context.

// indexCache caches structjoin indexes per store document.
type indexCache struct {
	mu   sync.Mutex
	idxs map[*store.Document]*structjoin.Index
}

// seed installs an externally built (shared) index for a document.
func (c *indexCache) seed(d *store.Document, idx *structjoin.Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idxs == nil {
		c.idxs = make(map[*store.Document]*structjoin.Index)
	}
	c.idxs[d] = idx
}

// indexFor returns the index for a document, building it on first use.
// built reports whether this call performed the build (vs a cache hit).
func (c *indexCache) indexFor(d *store.Document) (idx *structjoin.Index, built bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idxs == nil {
		c.idxs = make(map[*store.Document]*structjoin.Index)
	}
	if idx, ok := c.idxs[d]; ok {
		return idx, false
	}
	idx = structjoin.BuildIndex(d)
	c.idxs[d] = idx
	return idx, true
}

// ready reports whether an index for the document is already cached,
// without building one — the cost model charges the build to strategies
// that would have to perform it.
func (c *indexCache) ready(d *store.Document) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.idxs[d]
	return ok
}

// joinStep is one step of an extracted join chain.
type joinStep struct {
	name      xdm.QName
	childOnly bool // parent/child edge rather than ancestor/descendant
}

// extractJoinChain recognizes Path trees of the form
//
//	Root [/descendant-or-self::node()/child::N | /child::N]+
//
// with simple element name tests and no predicates, returning the chain in
// outermost-first order. ok is false when the shape doesn't match.
func extractJoinChain(e expr.Expr) (steps []joinStep, ok bool) {
	p, isPath := e.(*expr.Path)
	if !isPath {
		return nil, false
	}
	// Recurse into the left spine first.
	switch l := p.L.(type) {
	case *expr.Root:
		// chain starts here
	case *expr.Path:
		inner, innerOK := extractJoinChain(l)
		if !innerOK {
			return nil, false
		}
		steps = inner
	default:
		return nil, false
	}

	// The RHS must be either child::name, or the dos step (in which case
	// the *next* path level supplies the name; handled by the caller shape:
	// Root/dos::node() appears as Path{L: Root, R: dosStep}).
	switch r := p.R.(type) {
	case *expr.Step:
		switch {
		case r.Axis == expr.AxisChild && isPlainNameTest(&r.Test):
			// A child step: parent/child edge — but only meaningful when a
			// previous named step exists; a leading /name (from the
			// document root) is also fine (document node is the parent).
			steps = append(steps, joinStep{name: r.Test.Name, childOnly: true})
			return steps, len(steps) > 0
		case (r.Axis == expr.AxisDescendantOrSelf && r.Test.Kind == xtypes.TestAnyKind):
			// the "//" marker: mark by appending a sentinel the caller's
			// next child step will consume.
			steps = append(steps, joinStep{childOnly: false})
			return steps, true
		case r.Axis == expr.AxisDescendant && isPlainNameTest(&r.Test):
			steps = append(steps, joinStep{name: r.Test.Name, childOnly: false})
			return steps, true
		}
	}
	return nil, false
}

func isPlainNameTest(t *xtypes.NodeTest) bool {
	return t.Kind == xtypes.TestName && !t.AnyName && !t.WildLocal && !t.WildSpace
}

// normalizeChain merges "//" sentinels into the following named step.
// Returns ok=false when the chain is degenerate (sentinel at the end, or
// no named steps).
func normalizeChain(raw []joinStep) ([]joinStep, bool) {
	var out []joinStep
	pendingDesc := false
	for _, s := range raw {
		if s.name.IsZero() {
			pendingDesc = true
			continue
		}
		step := s
		if pendingDesc {
			step.childOnly = false
			pendingDesc = false
		}
		out = append(out, step)
	}
	if pendingDesc || len(out) == 0 {
		return nil, false
	}
	return out, true
}

// joinPlan is the index-join compilation of one join-eligible path: the
// extracted chain, run as one holistic path join. Its pointer identity keys
// the per-execution strategy-decision cache.
type joinPlan struct {
	chain []joinStep
}

// extractJoinPlan recognizes join-shaped paths. Returns nil when the
// pattern does not match (non-rooted, predicates, no descendant edge).
func extractJoinPlan(n *expr.Path) *joinPlan {
	raw, ok := extractJoinChain(n)
	if !ok {
		return nil
	}
	chain, ok := normalizeChain(raw)
	if !ok || len(chain) < 1 {
		return nil
	}
	// Only worthwhile when at least one edge is a descendant join.
	hasDesc := false
	for _, s := range chain[1:] {
		if !s.childOnly {
			hasDesc = true
		}
	}
	if len(chain) == 1 || !hasDesc {
		return nil
	}
	return &joinPlan{chain: chain}
}

// run executes the chain over the context node's document as one holistic
// path join, records the output cardinality in the plan's feedback cache,
// and feeds the result.
func (jp *joinPlan) run(fr *Frame, sn *store.Node, opID int, fb *feedback) Iter {
	idx, built := fr.dyn.base().indexes.indexFor(sn.D)
	if built {
		fr.dyn.Prof.addIndexBuild()
	} else {
		fr.dyn.Prof.addIndexHit()
	}
	fr.dyn.Prof.addTwigJoin()
	cur, err := jp.match(fr.dyn, idx)
	if err != nil {
		return errIter(err)
	}
	fb.record(opID, int64(len(cur)))
	return &postingsIter{d: sn.D, list: cur, dyn: fr.dyn}
}

// match evaluates the whole chain with one holistic join: no intermediate
// pair lists, morsel-parallel over the leaf posting list with
// UpperBoundStart-pruned upper lists per chunk. A childOnly first step is a
// child of the document node, an edge the join checks like any other.
func (jp *joinPlan) match(dyn *Dynamic, idx *structjoin.Index) (structjoin.List, error) {
	k := len(jp.chain)
	lists := make([]structjoin.List, k)
	childEdge := make([]bool, k)
	for i, s := range jp.chain {
		lists[i] = idx.Elements(s.name)
		childEdge[i] = s.childOnly
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil, nil
		}
	}
	return twigMatchMorsel(dyn, lists, childEdge)
}

// twigMatchMorsel runs the holistic path join, splitting a large leaf
// posting list into morsels matched by the worker pool. Every non-leaf
// list is pruned per chunk to the prefix that can still contain the
// chunk's leaves (ancestors start before their descendants —
// UpperBoundStart), and because the chunks partition a Start-sorted leaf
// list, per-chunk outputs are disjoint, internally sorted, and ordered
// across chunks: concatenation by chunk index reproduces the global result
// in document order.
func twigMatchMorsel(d *Dynamic, lists []structjoin.List, childEdge []bool) (structjoin.List, error) {
	leaf := lists[len(lists)-1]
	chunks := (len(leaf) + joinMorselPostings - 1) / joinMorselPostings
	if d == nil || d.Workers <= 1 || chunks < 2 {
		return structjoin.PathMatchLeaf(lists, childEdge), nil
	}
	extra, release := d.leaseExtra(chunks - 1)
	if extra == 0 {
		return structjoin.PathMatchLeaf(lists, childEdge), nil
	}
	defer release()
	parts, err := morselRound(d, extra, chunks, func(w *Dynamic, i int) (structjoin.List, error) {
		lo := i * joinMorselPostings
		hi := lo + joinMorselPostings
		if hi > len(leaf) {
			hi = len(leaf)
		}
		lchunk := leaf[lo:hi]
		if err := w.CheckInterruptN(len(lchunk)); err != nil {
			return nil, err
		}
		pruned := make([]structjoin.List, len(lists))
		last := lchunk[len(lchunk)-1].Region.Start
		for j := 0; j < len(lists)-1; j++ {
			pruned[j] = lists[j][:structjoin.UpperBoundStart(lists[j], last)]
		}
		pruned[len(lists)-1] = lchunk
		return structjoin.PathMatchLeaf(pruned, childEdge), nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make(structjoin.List, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// postingsIter feeds the nodes of a structural-join result list, a whole
// batch per pull. With morsel workers configured, batch pulls upgrade to
// parallel feed rounds: chunk i of a round fills its own sub-slice of one
// preallocated output — index-tagged stitching that needs no reordering.
// Deliberately no remaining() (sizedIter): materializing the feed is the
// work being measured, and an O(1) fn:count over it would misreport the
// join's cost.
type postingsIter struct {
	d    *store.Document
	list structjoin.List
	pos  int
	dyn  *Dynamic // morsel upgrade for batch pulls; nil stays sequential

	out []xdm.Item // pending stitched output of the last parallel round
	oi  int
}

func (p *postingsIter) serve(buf []xdm.Item) int {
	n := copy(buf, p.out[p.oi:])
	p.oi += n
	if p.oi >= len(p.out) {
		p.out, p.oi = nil, 0
	}
	return n
}

func (p *postingsIter) Next() (xdm.Item, bool, error) {
	if p.oi < len(p.out) {
		it := p.out[p.oi]
		p.oi++
		if p.oi >= len(p.out) {
			p.out, p.oi = nil, 0
		}
		return it, true, nil
	}
	if p.pos >= len(p.list) {
		return nil, false, nil
	}
	node := p.d.Node(p.list[p.pos].ID)
	p.pos++
	return node, true, nil
}

// NextBatch implements BatchIter.
func (p *postingsIter) NextBatch(buf []xdm.Item) (int, error) {
	if p.oi < len(p.out) {
		return p.serve(buf), nil
	}
	if ran, err := p.feedRound(); err != nil {
		return 0, err
	} else if ran && p.oi < len(p.out) {
		return p.serve(buf), nil
	}
	n := 0
	for n < len(buf) && p.pos < len(p.list) {
		buf[n] = p.d.Node(p.list[p.pos].ID)
		p.pos++
		n++
	}
	return n, nil
}

// feedRound materializes the next slice of the posting list with the worker
// pool, when a pool is configured and enough postings remain to matter.
func (p *postingsIter) feedRound() (bool, error) {
	rem := len(p.list) - p.pos
	chunks := (rem + feedMorselPostings - 1) / feedMorselPostings
	if p.dyn == nil || p.dyn.Workers <= 1 || chunks < 2 {
		return false, nil
	}
	extra, release := p.dyn.leaseExtra(chunks - 1)
	if extra == 0 {
		return false, nil
	}
	defer release()
	if max := (extra + 1) * feedRoundChunks; chunks > max {
		chunks = max
	}
	base := p.pos
	count := chunks * feedMorselPostings
	if count > rem {
		count = rem
	}
	out := make([]xdm.Item, count)
	_, err := morselRound(p.dyn, extra, chunks, func(w *Dynamic, i int) (struct{}, error) {
		lo := i * feedMorselPostings
		hi := lo + feedMorselPostings
		if hi > count {
			hi = count
		}
		for j := lo; j < hi; j++ {
			out[j] = p.d.Node(p.list[base+j].ID)
		}
		return struct{}{}, w.CheckInterruptN(hi - lo)
	})
	p.pos = base + count
	if err != nil {
		return true, err
	}
	p.out, p.oi = out, 0
	return true, nil
}
