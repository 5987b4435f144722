package expr

import (
	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Static type inference ("Every Xquery expression has a static type"): a
// conservative bottom-up inference over sequence types. The result is an
// upper bound — every value the expression can produce matches the inferred
// type — which is exactly what the optimizer's type-based rewritings need
// (goal 3 of the paper's type-system slide: ensure statically that the
// result is of an expected type).

// TypeEnv maps variable names (Clark notation) to inferred types.
type TypeEnv map[string]xtypes.SequenceType

// Infer computes a static type for e under env. Unknown constructs infer
// item()* (always sound).
func Infer(e Expr, env TypeEnv) xtypes.SequenceType {
	switch n := e.(type) {
	case *Literal:
		return xtypes.AtomicOne(n.Val.T)

	case *VarRef:
		if t, ok := env[n.Name.Clark()]; ok {
			return t
		}
		return xtypes.AnyItems

	case *Seq:
		if len(n.Items) == 0 {
			return xtypes.Empty
		}
		out := Infer(n.Items[0], env)
		for _, item := range n.Items[1:] {
			out = concatTypes(out, Infer(item, env))
		}
		return out

	case *Range:
		return xtypes.AtomicStar(xdm.TInteger)

	case *Arith:
		lt := Infer(n.L, env)
		rt := Infer(n.R, env)
		t := numericResult(lt, rt)
		occ := xtypes.OccOne
		if mayBeEmpty(lt.Occ) || mayBeEmpty(rt.Occ) {
			occ = xtypes.OccOpt
		}
		return xtypes.SequenceType{Occ: occ, Item: t}

	case *Neg:
		inner := Infer(n.X, env)
		occ := xtypes.OccOne
		if mayBeEmpty(inner.Occ) {
			occ = xtypes.OccOpt
		}
		return xtypes.SequenceType{Occ: occ, Item: numericResult(inner, inner)}

	case *Compare:
		if n.Kind == CompGeneral {
			return xtypes.AtomicOne(xdm.TBoolean)
		}
		occ := xtypes.OccOpt // value comparisons propagate ()
		return xtypes.SequenceType{Occ: occ, Item: xtypes.ItemType{Kind: xtypes.KAtomic, Type: xdm.TBoolean}}

	case *NodeCompare:
		return xtypes.AtomicOpt(xdm.TBoolean)

	case *Logic, *Quantified, *InstanceOf:
		return xtypes.AtomicOne(xdm.TBoolean)

	case *If:
		return unionTypes(Infer(n.Then, env), Infer(n.Else, env))

	case *TryCatch:
		return unionTypes(Infer(n.Try, env), Infer(n.Catch, env))

	case *Cast:
		if n.Castable {
			return xtypes.AtomicOne(xdm.TBoolean)
		}
		occ := xtypes.OccOne
		if n.Optional {
			occ = xtypes.OccOpt
		}
		return xtypes.SequenceType{Occ: occ, Item: xtypes.ItemType{Kind: xtypes.KAtomic, Type: n.T}}

	case *Treat:
		return n.T

	case *Typeswitch:
		out := Infer(n.Default, env)
		for _, c := range n.Cases {
			out = unionTypes(out, Infer(c.Body, env))
		}
		return out

	case *Path:
		// One right-side result per left item. A trailing step gives its
		// node type; "." and "/" on the right are nodes; an atomic or
		// unknown right side makes the whole path so.
		if s, ok := n.R.(*Step); ok {
			return stepType(s)
		}
		switch n.R.(type) {
		case *ContextItem, *Root:
			return xtypes.NodeStar
		}
		if rt := Infer(n.R, env); rt.Item.Kind == xtypes.KAtomic || rt.Item.Kind == xtypes.KAnyItem {
			return xtypes.SequenceType{Occ: relaxToStar(rt.Occ), Item: rt.Item}
		}
		return xtypes.NodeStar

	case *Step:
		return stepType(n)

	case *Filter:
		inner := Infer(n.In, env)
		return xtypes.SequenceType{Occ: relaxToStar(inner.Occ), Item: inner.Item}

	case *Root, *ContextItem:
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: xtypes.ItemType{Kind: xtypes.KAnyItem}}

	case *Flwor:
		child := env.clone()
		for _, cl := range n.Clauses {
			inT := Infer(cl.In, child)
			if cl.Kind == ForClause {
				child[cl.Var.Clark()] = xtypes.SequenceType{Occ: xtypes.OccOne, Item: inT.Item}
				if !cl.PosVar.IsZero() {
					child[cl.PosVar.Clark()] = xtypes.AtomicOne(xdm.TInteger)
				}
			} else {
				child[cl.Var.Clark()] = inT
			}
		}
		for _, g := range n.Group {
			child[g.Var.Clark()] = xtypes.AnyItems
		}
		retT := Infer(n.Ret, child)
		return xtypes.SequenceType{Occ: relaxToStar(retT.Occ), Item: retT.Item}

	case *SetOp:
		return xtypes.NodeStar

	case *ElemConstructor:
		it := xtypes.ItemType{Kind: xtypes.KElement, AnyName: true}
		if n.NameExpr == nil {
			it = xtypes.ItemType{Kind: xtypes.KElement, Name: n.Name}
		}
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: it}

	case *AttrConstructor:
		it := xtypes.ItemType{Kind: xtypes.KAttribute, AnyName: true}
		if n.NameExpr == nil {
			it = xtypes.ItemType{Kind: xtypes.KAttribute, Name: n.Name}
		}
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: it}

	case *TextConstructor:
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: xtypes.ItemType{Kind: xtypes.KText}}

	case *CommentConstructor:
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: xtypes.ItemType{Kind: xtypes.KComment}}

	case *PIConstructor:
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: xtypes.ItemType{Kind: xtypes.KPI}}

	case *DocConstructor:
		return xtypes.SequenceType{Occ: xtypes.OccOne, Item: xtypes.ItemType{Kind: xtypes.KDocument}}

	case *Call:
		if focusAccessor(n) {
			return xtypes.AtomicOne(xdm.TInteger)
		}
		if f := Builtin(n); f != nil {
			return f.Props.ReturnType()
		}
		return xtypes.AnyItems
	}
	return xtypes.AnyItems
}

func (env TypeEnv) clone() TypeEnv {
	out := make(TypeEnv, len(env)+4)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// stepType maps a step's node test to an item type.
func stepType(s *Step) xtypes.SequenceType {
	it := xtypes.ItemType{Kind: xtypes.KAnyNode}
	switch s.Test.Kind {
	case xtypes.TestName:
		kind := xtypes.KElement
		if s.Axis == AxisAttribute {
			kind = xtypes.KAttribute
		}
		it = xtypes.ItemType{Kind: kind, Name: s.Test.Name,
			AnyName: s.Test.AnyName || s.Test.WildLocal || s.Test.WildSpace}
	case xtypes.TestElement:
		it = xtypes.ItemType{Kind: xtypes.KElement, Name: s.Test.Name, AnyName: s.Test.AnyName}
	case xtypes.TestAttribute:
		it = xtypes.ItemType{Kind: xtypes.KAttribute, Name: s.Test.Name, AnyName: s.Test.AnyName}
	case xtypes.TestText:
		it = xtypes.ItemType{Kind: xtypes.KText}
	case xtypes.TestComment:
		it = xtypes.ItemType{Kind: xtypes.KComment}
	case xtypes.TestPI:
		it = xtypes.ItemType{Kind: xtypes.KPI}
	case xtypes.TestDoc:
		it = xtypes.ItemType{Kind: xtypes.KDocument}
	}
	return xtypes.SequenceType{Occ: xtypes.OccStar, Item: it}
}

// concatTypes types the comma operator.
func concatTypes(a, b xtypes.SequenceType) xtypes.SequenceType {
	return xtypes.SequenceType{Occ: addOcc(a.Occ, b.Occ), Item: joinItems(a, b)}
}

// unionTypes types a branch join (if/typeswitch).
func unionTypes(a, b xtypes.SequenceType) xtypes.SequenceType {
	return xtypes.SequenceType{Occ: maxOcc(a.Occ, b.Occ), Item: joinItems(a, b)}
}

// joinItems is the item type of a value drawn from a and b. An
// empty-sequence side contributes no item type, only the possibility of
// emptiness.
func joinItems(a, b xtypes.SequenceType) xtypes.ItemType {
	switch {
	case a.Occ == xtypes.OccEmpty:
		return b.Item
	case b.Occ == xtypes.OccEmpty, sameItemType(a.Item, b.Item):
		return a.Item
	case a.Item.Kind >= xtypes.KAnyNode && b.Item.Kind >= xtypes.KAnyNode:
		return xtypes.ItemType{Kind: xtypes.KAnyNode}
	}
	return xtypes.ItemType{Kind: xtypes.KAnyItem}
}

func sameItemType(a, b xtypes.ItemType) bool {
	return a.Kind == b.Kind && a.Type == b.Type && a.AnyName == b.AnyName && a.Name.Equal(b.Name)
}

func mayBeEmpty(o xtypes.Occurrence) bool {
	lo, _ := occBounds(o)
	return lo == 0
}

func relaxToStar(o xtypes.Occurrence) xtypes.Occurrence {
	if o == xtypes.OccEmpty {
		return xtypes.OccEmpty
	}
	return xtypes.OccStar
}

// addOcc is the occurrence of a sequence of a followed by b.
func addOcc(a, b xtypes.Occurrence) xtypes.Occurrence {
	alo, ahi := occBounds(a)
	blo, bhi := occBounds(b)
	return occOf(alo+blo, ahi+bhi)
}

// maxOcc is the union of two occurrence ranges: the tightest indicator
// admitting every count either side admits.
func maxOcc(a, b xtypes.Occurrence) xtypes.Occurrence {
	alo, ahi := occBounds(a)
	blo, bhi := occBounds(b)
	return occOf(min(alo, blo), max(ahi, bhi))
}

// occBounds is the fewest and most items o admits; 2 stands for many.
func occBounds(o xtypes.Occurrence) (lo, hi int) {
	switch o {
	case xtypes.OccEmpty:
		return 0, 0
	case xtypes.OccOne:
		return 1, 1
	case xtypes.OccOpt:
		return 0, 1
	case xtypes.OccPlus:
		return 1, 2
	}
	return 0, 2
}

// occOf is the tightest occurrence admitting lo to hi items (hi >= 2: many).
func occOf(lo, hi int) xtypes.Occurrence {
	switch {
	case hi == 0:
		return xtypes.OccEmpty
	case hi == 1 && lo == 0:
		return xtypes.OccOpt
	case hi == 1:
		return xtypes.OccOne
	case lo >= 1:
		return xtypes.OccPlus
	}
	return xtypes.OccStar
}

// numericResult gives the item type of an arithmetic result from its
// operand types: known numeric operand types promote; anything uncertain
// (untyped casts to double at run time) infers xs:anyAtomicType.
func numericResult(a, b xtypes.SequenceType) xtypes.ItemType {
	ta, tb := a.Item, b.Item
	if ta.Kind == xtypes.KAtomic && tb.Kind == xtypes.KAtomic &&
		ta.Type.IsNumeric() && tb.Type.IsNumeric() {
		return xtypes.ItemType{Kind: xtypes.KAtomic, Type: xdm.Promote(ta.Type, tb.Type)}
	}
	return xtypes.ItemType{Kind: xtypes.KAtomic, Type: xdm.TAnyAtomic}
}
