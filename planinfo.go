package xqgo

import (
	"xqgo/internal/expr"
	"xqgo/internal/runtime"
)

// Structured plan introspection: the compiled operator tree with the same
// stable operator ids that profile rows (OpProfile.ID) and trace spans
// carry, the join-strategy policy per path branch, and the static
// cardinality estimate of each operator.

// PlanOperator is one tagged operator of the compiled plan.
type PlanOperator struct {
	// ID is the stable operator id, matching profile rows and trace spans.
	ID int `json:"id"`
	// Kind is the operator kind ("path", "flwor", "filter", …).
	Kind string `json:"kind"`
	// Detail is a compact rendering of the operator's source expression.
	Detail string `json:"detail,omitempty"`
	// Line/Col locate the operator in the query source.
	Line int `json:"line"`
	Col  int `json:"col"`
	// EstItems is the static per-instantiation cardinality estimate
	// (optimizer.EstimateItems). A run whose cost model prices a path
	// reports the priced output on its profile row instead.
	EstItems int64 `json:"estItems"`
	// Strategy is the join-strategy policy of a path operator: "auto" for
	// cost-based selection, a concrete strategy when forced, "navigation"
	// for paths that are not join-eligible. Empty for non-path operators.
	// The strategy actually chosen at run time appears on the execution's
	// profile rows (OpProfile.Strategy).
	Strategy string `json:"strategy,omitempty"`
	// Children are the tagged operators of this operator's sub-expressions.
	Children []*PlanOperator `json:"children,omitempty"`
}

// PlanInfo is the structured form of a compiled plan.
type PlanInfo struct {
	// Text is the rendered optimized expression tree.
	Text string `json:"text"`
	// Strategy is the plan-level join-strategy policy ("auto" unless the
	// compile options forced one).
	Strategy string `json:"strategy"`
	// Operators is the tagged operator tree: global-variable initializers,
	// then function bodies, then the query body.
	Operators []*PlanOperator `json:"operators,omitempty"`
}

// PlanInfo returns the structured plan of the compiled query.
func (q *Query) PlanInfo() PlanInfo {
	return PlanInfo{
		Text:      expr.String(q.plan.Body),
		Strategy:  q.prepared.Strategy().String(),
		Operators: planOperators(q.prepared.PlanTree()),
	}
}

func planOperators(nodes []*runtime.PlanNode) []*PlanOperator {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]*PlanOperator, len(nodes))
	for i, n := range nodes {
		out[i] = &PlanOperator{
			ID:       n.ID,
			Kind:     n.Kind,
			Detail:   n.Detail,
			Line:     n.Line,
			Col:      n.Col,
			EstItems: n.EstItems,
			Strategy: n.Strategy,
			Children: planOperators(n.Children),
		}
	}
	return out
}
