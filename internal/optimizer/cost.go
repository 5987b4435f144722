package optimizer

import (
	"xqgo/internal/expr"
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// The one cardinality estimator. EstimateChain prices a rooted path chain
// (//a//b/c …) over one document: the planner chooses per branch between
// navigation and the holistic path join (PathStack, one pass over all
// posting lists). Inputs are store-level statistics collected at parse time
// (document size, mean element depth, per-name posting-list lengths — tag
// selectivity), whether a structural index is already cached for the
// document, and the output cardinality observed on a prior run of the same
// operator (the profile feedback loop). EstimateItems is the no-statistics
// case every other operator is reported with.

// Strategy selects how a join-eligible path chain is executed.
type Strategy int

const (
	// StrategyAuto is the zero value: pick per branch and per document with
	// this cost model.
	StrategyAuto Strategy = iota
	// StrategyNavigation forces tree navigation (the index-free baseline).
	StrategyNavigation
	// StrategyTwigJoin forces the holistic twig join.
	StrategyTwigJoin
)

// String renders the strategy the way xqd surfaces and metrics label it.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNavigation:
		return "navigation"
	case StrategyTwigJoin:
		return "twig-join"
	default:
		return "unknown"
	}
}

// ChainStep is one step of a rooted path chain, as the cost model sees it.
type ChainStep struct {
	Postings int64 // posting-list length of the step's name test
}

// ChainStats carries everything the model knows about one chain over one
// document.
type ChainStats struct {
	DocNodes   int64       // total nodes in the document
	AvgDepth   float64     // mean element depth (region-label level)
	IndexReady bool        // a structural index is already cached
	Observed   int64       // output cardinality observed on a prior run; -1 unknown
	Steps      []ChainStep // outermost-first
}

// CostEstimate is the model's verdict: abstract per-strategy costs (posting
// visits, roughly), the output-cardinality estimate used, and the winner.
type CostEstimate struct {
	Navigation float64 `json:"navigation"`
	TwigJoin   float64 `json:"twigJoin"`
	Output     float64 `json:"output"`
	Choice     Strategy
}

// Model weights, in abstract "posting visit" units. They encode relative
// constants, not absolute times: navigation touches every node per step
// through the full axis-iterator machinery and pays a sort+dedup tail on
// its materialized output; an index build is one cheap append-only scan.
const (
	costNavNode  = 2.0  // navigation work per document node per chain step
	costNavOut   = 2.5  // per output item: materialize + sort + dedup tail
	costBuild    = 1.0  // index build, per document node (skipped when cached)
	costTwigPost = 1.25 // holistic join, per posting (stack discipline)
	costJoinOut  = 1.0  // join feed, per output item (already in doc order)
	costSetup    = 256  // fixed index-plan overhead: keeps tiny docs on navigation

	// selFloor keeps the containment expectation from collapsing to zero on
	// sparse names (the tree depth caps it from above: a descendant has at
	// most AvgDepth-ish ancestors).
	selFloor = 0.25
)

// EstimateChain runs the model over one chain and returns per-strategy
// costs plus the winning strategy. A tie goes to navigation.
func EstimateChain(cs ChainStats) CostEstimate {
	if len(cs.Steps) == 0 {
		return CostEstimate{Choice: StrategyNavigation}
	}
	n := float64(cs.DocNodes)
	if n < 1 {
		n = 1
	}
	depth := cs.AvgDepth
	if depth < 1 {
		depth = 1
	}

	// Walk the chain estimating intermediate cardinalities: out_i candidates
	// of step i survive containment under the out_{i-1} survivors of the
	// previous step. The expected number of stacked ancestors over a random
	// node is ~ depth * |A| / N, floored so sparse names keep a pulse and
	// capped by the depth itself.
	out := float64(cs.Steps[0].Postings)
	sumPostings := out
	for _, s := range cs.Steps[1:] {
		l := float64(s.Postings)
		sumPostings += l
		f := depth * out / n
		if f < selFloor {
			f = selFloor
		}
		if f > depth {
			f = depth
		}
		if pairs := l * f; pairs < l {
			out = pairs
		} else {
			out = l
		}
	}
	if cs.Observed >= 0 {
		// Feedback from a prior run replaces the modelled output: the
		// observed items of the last run price this one.
		out = float64(cs.Observed)
	}

	build := 0.0
	if !cs.IndexReady {
		build = costBuild * n
	}
	steps := float64(len(cs.Steps))
	est := CostEstimate{
		Navigation: costNavNode*n*steps + costNavOut*out,
		TwigJoin:   build + costSetup + costTwigPost*sumPostings + costJoinOut*out,
		Output:     out,
	}
	est.Choice = StrategyNavigation
	if est.TwigJoin < est.Navigation {
		est.Choice = StrategyTwigJoin
	}
	return est
}

// estFanout is the uniform branching assumption of EstimateItems for a
// sequence type proven only to be T* or T+.
const estFanout = 8

// EstimateItems is the static per-instantiation cardinality of an operator
// no statistics price: a literal range or literal sequence counts exactly,
// otherwise the occurrence indicator the type system infers decides —
// empty-sequence() 0, T and T? 1, T* and T+ estFanout.
func EstimateItems(e expr.Expr) int64 {
	switch n := e.(type) {
	case *expr.Range:
		lo, ok1 := literalOf(n.Lo)
		hi, ok2 := literalOf(n.Hi)
		if ok1 && ok2 && lo.T == xdm.TInteger && hi.T == xdm.TInteger {
			return max(hi.AsInt()-lo.AsInt()+1, 0)
		}
	case *expr.Seq:
		var sum int64
		for _, item := range n.Items {
			sum += EstimateItems(item)
		}
		return sum
	}
	switch expr.Infer(e, nil).Occ {
	case xtypes.OccEmpty:
		return 0
	case xtypes.OccOne, xtypes.OccOpt:
		return 1
	default:
		return estFanout
	}
}
