package runtime

import (
	"math"
	"sync/atomic"

	"xqgo/internal/optimizer"
	"xqgo/internal/store"
)

// Cost-based join-strategy selection. A join-eligible path operator keeps
// both its navigation and its index-join compilations and decides at run
// time — per operator and per document, since the statistics that drive the
// decision (document size, tag selectivity, whether an index is cached) are
// only known then. Decisions are cached on the execution's base Dynamic so
// an operator instantiated once per FLWOR tuple prices its plan once, and
// each resolved choice is recorded on the profile exactly once per
// (operator, document).

// feedback is the per-plan cardinality-feedback cache: the output
// cardinality each join-eligible path operator produced on a prior
// execution, keyed by the operator's stable profile id. A Prepared shares
// one feedback across all its executions (atomically — concurrent
// executions may race to publish, any observed value is a real
// observation): the next Auto decision prices plans against the observed
// output instead of the modelled one, and reports that price as estItems.
type feedback struct {
	obs []atomic.Int64 // observed cardinality + 1; 0 = never observed
}

func (f *feedback) init(n int) { f.obs = make([]atomic.Int64, n) }

// observed returns the last recorded output cardinality for operator id,
// or -1 when none was recorded (unknown id, profiling off, never ran).
func (f *feedback) observed(id int) int64 {
	if f == nil || id < 0 || id >= len(f.obs) {
		return -1
	}
	if v := f.obs[id].Load(); v > 0 {
		return v - 1
	}
	return -1
}

// record stores an observed output cardinality for operator id.
func (f *feedback) record(id int, n int64) {
	if f != nil && id >= 0 && id < len(f.obs) && n >= 0 {
		f.obs[id].Store(n + 1)
	}
}

// planKey identifies one strategy decision: a join-eligible path operator
// (by its compiled joinPath identity) over one document.
type planKey struct {
	jp  *joinPath
	doc *store.Document
}

// Strategy returns the plan-level join-strategy policy.
func (p *Prepared) Strategy() optimizer.Strategy { return p.opts.Strategy }

// pathDecision returns the concrete execution strategy for one join-eligible
// path operator over one document, resolving StrategyAuto through the cost
// model. The decision is cached per execution; the first resolution is
// recorded on the profile (operator row + per-strategy totals), with the
// output the model priced it with when it was priced.
func (d *Dynamic) pathDecision(jp *joinPath, doc *store.Document, policy optimizer.Strategy, opID int, fb *feedback) optimizer.Strategy {
	b := d.base()
	key := planKey{jp: jp, doc: doc}
	b.planMu.Lock()
	if s, ok := b.plans[key]; ok {
		b.planMu.Unlock()
		return s
	}
	b.planMu.Unlock()

	// Price outside the lock: Stats() may drive a lazy parse to completion.
	s, est := policy, int64(-1)
	if s == optimizer.StrategyAuto {
		s, est = chooseChainStrategy(jp, doc, b.indexes.ready(doc), fb.observed(opID))
	}

	b.planMu.Lock()
	if prev, ok := b.plans[key]; ok {
		b.planMu.Unlock()
		return prev
	}
	if b.plans == nil {
		b.plans = make(map[planKey]optimizer.Strategy)
	}
	b.plans[key] = s
	b.planMu.Unlock()
	d.Prof.notePlanChoice(opID, s, est)
	return s
}

// chooseChainStrategy runs the optimizer cost model over one chain and one
// document, returning the choice and the output it was priced with. Lazy
// (still-parsing) documents navigate unpriced (-1): their statistics are
// unknown and an index build would force the whole parse.
func chooseChainStrategy(jp *joinPath, doc *store.Document, indexReady bool, observed int64) (optimizer.Strategy, int64) {
	if doc.Lazy() {
		return optimizer.StrategyNavigation, -1
	}
	st := doc.Stats()
	cs := optimizer.ChainStats{
		DocNodes:   st.Nodes,
		AvgDepth:   st.AvgDepth,
		IndexReady: indexReady,
		Observed:   observed,
		Steps:      make([]optimizer.ChainStep, len(jp.chain)),
	}
	for i, s := range jp.chain {
		cs.Steps[i] = optimizer.ChainStep{Postings: st.ElementCount(s.name)}
	}
	est := optimizer.EstimateChain(cs)
	return est.Choice, int64(math.Round(est.Output))
}
