package runtime

import (
	"sync"

	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
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

// extractJoinPlan recognizes join-shaped paths and returns the chain the
// holistic path join runs. Returns nil when the pattern does not match
// (non-rooted, predicates, no descendant edge).
func extractJoinPlan(n *expr.Path) []joinStep {
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
	return chain
}

// joinPath is the index-join compilation of one join-eligible path operator
// and its run-time dispatch: the compiled policy first, then the cost model
// when the policy is Auto, picks navigation or the path join per document.
// The resolved choice lands on the operator's profile row, so explain
// output shows which strategy ran. Its pointer identity keys the
// per-execution strategy-decision cache.
type joinPath struct {
	chain  []joinStep
	policy optimizer.Strategy
	fb     *feedback
	op     int // the path's profiling id
}

// open returns the path join's leaves under fr's context node, or nil when
// the path navigates: the context is not a stored node, or the decision
// for its document is navigation.
func (p *joinPath) open(fr *Frame) (*joinIter, error) {
	it, _ := fr.ContextItem()
	sn, isStore := it.(*store.Node)
	if !isStore || fr.dyn.pathDecision(p, sn.D, p.policy, p.op, p.fb) != optimizer.StrategyTwigJoin {
		return nil, nil
	}
	idx, built := fr.dyn.base().indexes.indexFor(sn.D)
	if built {
		fr.dyn.Prof.addIndexBuild()
	} else {
		fr.dyn.Prof.addIndexHit()
	}
	fr.dyn.Prof.addTwigJoin()
	k := len(p.chain)
	lists := make([]structjoin.List, k)
	childEdge := make([]bool, k)
	for i, s := range p.chain {
		lists[i] = idx.Elements(s.name)
		childEdge[i] = s.childOnly
	}
	j := &joinIter{d: sn.D, dyn: fr.dyn, fb: p.fb, op: p.op}
	ids, ran, err := matchMorsel(fr.dyn, lists, childEdge)
	switch {
	case err != nil:
		return nil, err
	case ran:
		j.ids, j.n = ids, int64(len(ids))
	default:
		j.cur = structjoin.NewPathCursor(lists, childEdge)
		j.ids = make([]int32, 0, joinIDBatch)
	}
	return j, nil
}

// walk visits the path join's leaves by id, as chain.walk does for a step
// chain; ok=false when the path navigates.
func (p *joinPath) walk(fr *Frame, visit func(d *store.Document, id int32) (stop bool, err error)) (ok bool, n int64, err error) {
	j, err := p.open(fr)
	if j == nil {
		return err != nil, 0, err
	}
	for id := j.nextID(); id >= 0; id = j.nextID() {
		n++
		stop := false
		if err = fr.dyn.CheckInterrupt(); err == nil {
			stop, err = visit(j.d, id)
		}
		if stop || err != nil {
			break
		}
	}
	return true, n, err
}

// matchMorsel runs the holistic path join over a large leaf posting list
// on the worker pool, one cursor drained per leaf chunk. Every non-leaf
// list is pruned per chunk to the prefix that can still contain the
// chunk's leaves (ancestors start before their descendants —
// UpperBoundStart), and because the chunks partition a Start-sorted leaf
// list, per-chunk ids are disjoint, internally sorted, and ordered across
// chunks: concatenation by chunk index is document order. ran=false leaves
// the join to one cursor read on demand: no workers are configured or
// granted, or the leaf list is small.
func matchMorsel(d *Dynamic, lists []structjoin.List, childEdge []bool) (ids []int32, ran bool, err error) {
	leaf := lists[len(lists)-1]
	chunks := (len(leaf) + joinMorselPostings - 1) / joinMorselPostings
	if d.Workers <= 1 || chunks < 2 {
		return nil, false, nil
	}
	extra, release := d.leaseExtra(chunks - 1)
	if extra == 0 {
		return nil, false, nil
	}
	defer release()
	parts, err := morselRound(d, extra, chunks, func(w *Dynamic, i int) ([]int32, error) {
		lchunk := leaf[i*joinMorselPostings : min((i+1)*joinMorselPostings, len(leaf))]
		// A chunk drains its cursor in one call, so the group's hook (which
		// morselRound installs on every worker) is polled once per chunk.
		if err := w.Interrupt(); err != nil {
			return nil, err
		}
		pruned := make([]structjoin.List, len(lists))
		last := lchunk[len(lchunk)-1].Region.Start
		for j := 0; j < len(lists)-1; j++ {
			pruned[j] = lists[j][:structjoin.UpperBoundStart(lists[j], last)]
		}
		pruned[len(lists)-1] = lchunk
		// A chunk matches at most its leaves, so one slice of their
		// number takes the whole drain.
		c := structjoin.NewPathCursor(pruned, childEdge)
		out := make([]int32, 0, len(lchunk))
		for k := c.Next(out[:cap(out)]); k > 0; k = c.Next(out[len(out):cap(out)]) {
			out = out[:len(out)+k]
		}
		return out, nil
	})
	if err != nil {
		return nil, true, err
	}
	for _, p := range parts {
		ids = append(ids, p...)
	}
	return ids, true, nil
}

// joinIter streams a path join's leaves: ids from the cursor joinIDBatch at
// a time, or the stitched ids of a morsel round, each boxed only as it is
// emitted. Once the ids run out, their count lands in the plan's feedback
// cache.
const joinIDBatch = 128

type joinIter struct {
	d   *store.Document
	dyn *Dynamic
	cur *structjoin.PathCursor // nil once exhausted, or when ids holds every match
	ids []int32
	i   int
	n   int64 // ids read so far
	fb  *feedback
	op  int
}

// nextID returns the next leaf id, or -1 at the end.
func (j *joinIter) nextID() int32 {
	if j.i == len(j.ids) && !j.fill() {
		return -1
	}
	j.i++
	return j.ids[j.i-1]
}

// fill reads the cursor's next batch of ids; false at the end.
func (j *joinIter) fill() bool {
	if j.cur != nil {
		if k := j.cur.Next(j.ids[:cap(j.ids)]); k > 0 {
			j.ids, j.i, j.n = j.ids[:k], 0, j.n+int64(k)
			return true
		}
		j.cur = nil
	}
	if j.fb != nil {
		j.fb.record(j.op, j.n)
		j.fb = nil
	}
	return false
}

func (j *joinIter) Next() (xdm.Item, bool, error) {
	if err := j.dyn.CheckInterrupt(); err != nil {
		return nil, false, err
	}
	if id := j.nextID(); id >= 0 {
		return j.d.Node(id), true, nil
	}
	return nil, false, nil
}
