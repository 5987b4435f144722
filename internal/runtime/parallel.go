package runtime

import (
	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// Comma-branch parallelism — the paper's "Parallel execution" slide:
// independent sub-expressions of a sequence are evaluated concurrently ("only
// if there is no data dependency; only if the compiler guarantees that the
// given subexpressions are executed"). The branches of an eligible comma
// sequence are one more work source of the morsel scheduler (morsel.go), one
// chunk per branch. The execution guarantee comes from demand, not from the
// syntax: only a NextBatch pull — a consumer that drains the whole sequence —
// runs a round, so under a one-item consumer (fn:exists, a positional
// predicate, a quantifier) the branches after the deciding one are never
// evaluated, exactly as without workers. Independence is established by
// forcing the branches' shared variable bindings before the round, after
// which each worker touches only immutable state (the store is read-only,
// documents and caches are mutex-guarded).
//
// Note the error-timing caveat the paper discusses for LET unfolding: forcing
// shared bindings may evaluate a variable an entirely lazy engine would have
// skipped, and a failing branch reports without the items of the branches
// before it. XQuery's non-deterministic error semantics permit both.

// parallelMinWeight is the minimum expression-tree size of a branch worth a
// worker.
const parallelMinWeight = 12

// parallelSeqBindings is the static eligibility test for evaluating a comma
// sequence's branches on the worker pool: at least two heavy branches, none
// reading the focus, none calling a user function. It returns the variable
// ids the branches read — forced on the pulling goroutine before a round.
func (c *compiler) parallelSeqBindings(n *expr.Seq) (shared []int, ok bool) {
	if len(n.Items) < 2 {
		return nil, false
	}
	heavy := 0
	for _, item := range n.Items {
		// Focus plumbing (fn:last materialization) is not safe to share
		// across goroutines, and a function body may lazily force a shared
		// global; keep such sequences sequential.
		if expr.UsesContext(item) || c.hasUserCall(item) {
			return nil, false
		}
		if expr.Count(item) >= parallelMinWeight {
			heavy++
		}
	}
	if heavy < 2 {
		return nil, false
	}
	seen := map[int]bool{}
	for _, item := range n.Items {
		for name := range expr.FreeVars(item) {
			if id, ok := c.resolve(xdm.ParseClark(name)); ok && !seen[id] {
				seen[id] = true
				shared = append(shared, id)
			}
		}
	}
	return shared, true
}

// parSeqIter is the comma iterator of an eligible sequence under a worker
// pool. Next is the lazy concat, unchanged; the first NextBatch, when no
// branch has started, tries one morsel round over all branches and serves
// its stitched output, falling back to the batched concat when no extra
// worker is granted.
type parSeqIter struct {
	concatIter
	shared []int // variable ids the branches read
	tried  bool
}

// NextBatch implements BatchIter.
func (p *parSeqIter) NextBatch(buf []xdm.Item) (int, error) {
	if !p.tried {
		p.tried = true
		if err := p.round(); err != nil {
			return 0, err
		}
	}
	return p.concatIter.NextBatch(buf)
}

// round evaluates every branch as one chunk of a morsel round and leaves the
// stitched output as the concat's last operand. It is a no-op — nothing
// forced, nothing evaluated — when item pulls already started a branch, the
// input is a still-parsing stream, or the limiter grants nothing.
func (p *parSeqIter) round() error {
	d := p.fr.dyn
	if p.idx > 0 || d.streamingLazy() {
		return nil
	}
	extra, release := d.leaseExtra(len(p.fns) - 1)
	if extra == 0 {
		return nil
	}
	defer release()
	for _, id := range p.shared {
		if _, err := p.fr.lookup(id).All(); err != nil {
			return err
		}
	}
	parts, err := morselRound(d, extra, len(p.fns), func(w *Dynamic, i int) (xdm.Sequence, error) {
		return drainBatched(w, p.fns[i](p.fr.withDyn(w)))
	})
	p.idx = len(p.fns)
	if err != nil {
		return err
	}
	var out xdm.Sequence
	for _, part := range parts {
		out = append(out, part...)
	}
	p.cur = newSliceIter(out)
	return nil
}
