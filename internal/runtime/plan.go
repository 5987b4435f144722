package runtime

import "xqgo/internal/expr"

// Structured plan introspection: the tagged-operator tree of a compiled
// query. Operator ids are the same stable ids profile rows and trace spans
// carry, so a caller can line up PlanTree output with explain profiles.

// PlanNode is one tagged operator with the tagged operators of its
// sub-expressions as children. Untagged glue expressions (literals,
// arithmetic, …) do not appear as nodes; their tagged descendants attach
// to the nearest tagged ancestor.
type PlanNode struct {
	OpInfo
	Children []*PlanNode `json:"children,omitempty"`
}

// PlanTree returns the operator tree of the compiled plan: global-variable
// initializers, then function bodies, then the query body.
func (p *Prepared) PlanTree() []*PlanNode {
	if len(p.ops) == 0 || p.query == nil {
		return nil
	}
	byExpr := make(map[expr.Expr][]int, len(p.opExpr))
	for id, e := range p.opExpr {
		byExpr[e] = append(byExpr[e], id)
	}
	var build func(e expr.Expr, sink *[]*PlanNode)
	build = func(e expr.Expr, sink *[]*PlanNode) {
		if e == nil {
			return
		}
		if ids := byExpr[e]; len(ids) > 0 {
			// An expression tagged more than once (nested wrappers) chains
			// vertically, outermost first.
			node := &PlanNode{OpInfo: p.ops[ids[0]]}
			*sink = append(*sink, node)
			for _, id := range ids[1:] {
				child := &PlanNode{OpInfo: p.ops[id]}
				node.Children = append(node.Children, child)
				node = child
			}
			sink = &node.Children
		}
		for _, ch := range e.Children() {
			build(ch, sink)
		}
	}
	var roots []*PlanNode
	for i := range p.query.Vars {
		if !p.query.Vars[i].External {
			build(p.query.Vars[i].Init, &roots)
		}
	}
	for i := range p.query.Funcs {
		build(p.query.Funcs[i].Body, &roots)
	}
	build(p.query.Body, &roots)
	return roots
}
