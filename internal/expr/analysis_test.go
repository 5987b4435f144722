package expr

import (
	"sort"
	"strings"
	"testing"

	"xqgo/internal/xdm"
	"xqgo/internal/xtypes"
)

// Helpers to build small trees without the parser (avoiding a test-only
// import cycle).

func lit(i int64) Expr   { return NewLiteral(Pos{}, xdm.NewInteger(i)) }
func v(name string) Expr { return &VarRef{Name: xdm.LocalName(name)} }

func flworFor(varName string, in Expr, ret Expr) *Flwor {
	return &Flwor{
		Clauses: []Clause{{Kind: ForClause, Var: xdm.LocalName(varName), In: in}},
		Ret:     ret,
	}
}

func flworLet(varName string, in Expr, ret Expr) *Flwor {
	return &Flwor{
		Clauses: []Clause{{Kind: LetClause, Var: xdm.LocalName(varName), In: in}},
		Ret:     ret,
	}
}

func TestFreeVars(t *testing.T) {
	// for $x in $a return ($x, $b)
	e := flworFor("x", v("a"), &Seq{Items: []Expr{v("x"), v("b")}})
	free := FreeVars(e)
	var names []string
	for k := range free {
		names = append(names, k)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "a,b" {
		t.Errorf("free vars = %v, want a,b", names)
	}

	// Shadowing: let $x := $x return $x — the outer $x is free in the
	// binding, the body's $x is bound.
	e2 := flworLet("x", v("x"), v("x"))
	free2 := FreeVars(e2)
	if len(free2) != 1 || !free2["x"] {
		t.Errorf("shadowed free vars = %v", free2)
	}

	// Quantifier binding.
	q := &Quantified{
		Binds:     []QBind{{Var: xdm.LocalName("q"), In: v("src")}},
		Satisfies: &Compare{Kind: CompValue, Op: xdm.OpEq, L: v("q"), R: v("lim")},
	}
	free3 := FreeVars(q)
	if !free3["src"] || !free3["lim"] || free3["q"] {
		t.Errorf("quantifier free vars = %v", free3)
	}
}

func TestUsesOf(t *testing.T) {
	// let $y := ... return $y + $y  — two uses, no loop.
	body := &Arith{Op: xdm.OpAdd, L: v("y"), R: v("y")}
	u := UsesOf(body, xdm.LocalName("y"))
	if u.Count != 2 || u.InLoop {
		t.Errorf("uses = %+v, want {2 false}", u)
	}

	// for $i in $in return $y — $y used once but inside a loop body.
	loop := flworFor("i", v("in"), v("y"))
	u = UsesOf(loop, xdm.LocalName("y"))
	if u.Count != 1 || !u.InLoop {
		t.Errorf("loop uses = %+v, want {1 true}", u)
	}

	// The loop *input* is not inside the loop.
	u = UsesOf(loop, xdm.LocalName("in"))
	if u.Count != 1 || u.InLoop {
		t.Errorf("input uses = %+v, want {1 false}", u)
	}

	// Shadowed variable is not counted.
	sh := flworFor("y", v("outer"), v("y"))
	u = UsesOf(sh, xdm.LocalName("y"))
	if u.Count != 0 {
		t.Errorf("shadowed count = %d, want 0", u.Count)
	}

	// Path RHS counts as a loop position.
	p := &Path{L: v("nodes"), R: &Filter{In: &Step{Axis: AxisChild, Test: xtypes.NodeTest{AnyName: true}},
		Preds: []Expr{v("y")}}}
	u = UsesOf(p, xdm.LocalName("y"))
	if !u.InLoop {
		t.Error("predicate use should be in a loop")
	}
}

func TestCreatesNodes(t *testing.T) {
	if CreatesNodes(lit(1), nil) {
		t.Error("literal creates no nodes")
	}
	ctor := &ElemConstructor{Name: xdm.LocalName("a")}
	if !CreatesNodes(ctor, nil) {
		t.Error("constructor creates nodes")
	}
	if !CreatesNodes(flworFor("x", v("in"), ctor), nil) {
		t.Error("nested constructor creates nodes")
	}
	call := &Call{Name: xdm.QName{Local: "count"}}
	if !CreatesNodes(call, nil) {
		t.Error("unknown calls conservatively create nodes")
	}
	if CreatesNodes(call, func(*Call) bool { return false }) {
		t.Error("resolver can clear calls")
	}
}

func TestUsesContext(t *testing.T) {
	if !UsesContext(&ContextItem{}) || !UsesContext(&Root{}) {
		t.Error("context item / root use the context")
	}
	if UsesContext(lit(1)) || UsesContext(v("x")) {
		t.Error("literals and variables do not")
	}
	// $x/child::a does not use the *outer* context.
	p := &Path{L: v("x"), R: &Step{Axis: AxisChild}}
	if UsesContext(p) {
		t.Error("rooted path does not use the outer context")
	}
	// child::a alone does.
	if !UsesContext(&Step{Axis: AxisChild}) {
		t.Error("bare step uses the context")
	}
	if !UsesContext(&Call{Name: xdm.QName{Local: "position"}}) {
		t.Error("fn:position uses the context")
	}
}

func TestCanRaiseError(t *testing.T) {
	if CanRaiseError(lit(1)) || CanRaiseError(v("x")) {
		t.Error("pure leaves cannot raise")
	}
	if !CanRaiseError(&Arith{Op: xdm.OpDiv, L: lit(1), R: lit(0)}) {
		t.Error("arithmetic can raise")
	}
	if !CanRaiseError(&Cast{X: v("x"), T: xdm.TInteger}) {
		t.Error("casts can raise")
	}
	if CanRaiseError(&Call{Name: xdm.QName{Local: "count"}, Args: []Expr{v("x")}}) {
		t.Error("fn:count cannot raise")
	}
	if !CanRaiseError(&Call{Name: xdm.QName{Local: "doc"}, Args: []Expr{v("x")}}) {
		t.Error("fn:doc can raise")
	}
}

// TestStepOrderProps reproduces the paper's path-expression table:
//
//	$document/a/b/c  — doc order, no duplicates
//	$document/a//b   — doc order, no duplicates
//	$document//a/b   — NOT doc order guaranteed... (here: //a yields
//	                   possibly nested a's, so /b may interleave)
//	$document//a//b  — nothing guaranteed
func TestStepOrderProps(t *testing.T) {
	docProps := OrderProps{Sorted: true, Distinct: true, Disjoint: true}
	child := func(name string) *Step {
		return &Step{Axis: AxisChild, Test: xtypes.NodeTest{Name: xdm.LocalName(name)}}
	}
	dos := &Step{Axis: AxisDescendantOrSelf, Test: xtypes.NodeTest{Kind: xtypes.TestAnyKind}}

	// /a/b/c: child steps preserve everything.
	p := StepOrderProps(StepOrderProps(StepOrderProps(docProps, child("a")), child("b")), child("c"))
	if !p.Sorted || !p.Distinct {
		t.Errorf("/a/b/c props = %+v", p)
	}

	// /a//b: descendant from a single tree is sorted+distinct only when
	// the input is one subtree; /a yields multiple disjoint subtrees so
	// the descendant step from SingleTree=false loses guarantees — but
	// from the document root (/ then //) it holds.
	fromRoot := StepOrderProps(docProps, dos)
	if !fromRoot.Sorted || !fromRoot.Distinct {
		t.Errorf("/ // props = %+v", fromRoot)
	}

	// //a/b: child after unguaranteed descendant input keeps nothing.
	afterDesc := StepOrderProps(StepOrderProps(docProps, child("a")), dos)
	childAfter := StepOrderProps(afterDesc, child("b"))
	if childAfter.Sorted {
		t.Errorf("//a/b should not be guaranteed sorted here: %+v", childAfter)
	}

	// parent steps lose everything.
	par := StepOrderProps(docProps, &Step{Axis: AxisParent, Test: xtypes.NodeTest{Kind: xtypes.TestAnyKind}})
	if par.Sorted || par.Distinct {
		t.Errorf("parent props = %+v", par)
	}
}

func TestRewrite(t *testing.T) {
	// Replace every literal 1 with 2, bottom-up.
	e := &Arith{Op: xdm.OpAdd, L: lit(1), R: &Arith{Op: xdm.OpMul, L: lit(1), R: lit(3)}}
	out := Rewrite(e, func(x Expr) Expr {
		if l, ok := x.(*Literal); ok && l.Val.Int() == 1 {
			return lit(2)
		}
		return nil
	})
	if String(out) != "(2 + (2 * 3))" {
		t.Errorf("rewrite = %s", String(out))
	}
	// The original is untouched (persistent rewriting).
	if String(e) != "(1 + (1 * 3))" {
		t.Errorf("original mutated: %s", String(e))
	}
}

func TestCountAndWalk(t *testing.T) {
	e := &Seq{Items: []Expr{lit(1), &Arith{Op: xdm.OpAdd, L: lit(2), R: lit(3)}}}
	if Count(e) != 5 {
		t.Errorf("Count = %d, want 5", Count(e))
	}
	seen := 0
	Walk(e, func(x Expr) bool {
		seen++
		_, isArith := x.(*Arith)
		return !isArith // prune below arithmetic
	})
	if seen != 3 { // seq, lit, arith
		t.Errorf("pruned walk saw %d nodes, want 3", seen)
	}
}

func TestWithChildrenRoundTrip(t *testing.T) {
	// Every composite node must reconstruct identically via WithChildren.
	nodes := []Expr{
		&Seq{Items: []Expr{lit(1), lit(2)}},
		&Range{Lo: lit(1), Hi: lit(2)},
		&Arith{Op: xdm.OpAdd, L: lit(1), R: lit(2)},
		&Neg{X: lit(1)},
		&Compare{Kind: CompGeneral, Op: xdm.OpLt, L: lit(1), R: lit(2)},
		&NodeCompare{Op: NodeIs, L: v("a"), R: v("b")},
		&Logic{And: true, L: lit(1), R: lit(2)},
		&Path{L: v("x"), R: &Step{Axis: AxisChild}},
		&Filter{In: v("x"), Preds: []Expr{lit(1), lit(2)}},
		flworFor("x", v("in"), v("x")),
		&Flwor{
			Clauses: []Clause{
				{Kind: ForClause, Var: xdm.LocalName("a"), PosVar: xdm.LocalName("i"), In: v("s")},
				{Kind: LetClause, Var: xdm.LocalName("b"), In: v("a")},
			},
			Where: v("a"),
			Order: []OrderSpec{{Key: v("b")}},
			Ret:   v("b"),
		},
		&Quantified{Binds: []QBind{{Var: xdm.LocalName("q"), In: v("s")}}, Satisfies: lit(1)},
		&If{Cond: lit(1), Then: lit(2), Else: lit(3)},
		&Typeswitch{Input: v("x"), Cases: []TSCase{{Type: xtypes.AnyItems, Body: lit(1)}}, Default: lit(2)},
		&InstanceOf{X: v("x"), T: xtypes.AnyItems},
		&Cast{X: v("x"), T: xdm.TInteger},
		&Treat{X: v("x"), T: xtypes.AnyItems},
		&SetOp{Op: SetUnion, L: v("a"), R: v("b")},
		&Call{Name: xdm.QName{Local: "f"}, Args: []Expr{lit(1)}},
		&ElemConstructor{Name: xdm.LocalName("e"),
			Attrs:   []DirAttr{{Name: xdm.LocalName("a"), Parts: []Expr{lit(1)}}},
			Content: []Expr{lit(2)}},
		&AttrConstructor{Name: xdm.LocalName("a"), Value: []Expr{lit(1)}},
		&TextConstructor{X: lit(1)},
		&CommentConstructor{X: lit(1)},
		&PIConstructor{Target: "t", X: lit(1)},
		&DocConstructor{X: lit(1)},
	}
	for _, n := range nodes {
		rebuilt := n.WithChildren(n.Children())
		if String(rebuilt) != String(n) {
			t.Errorf("%T: WithChildren changed rendering:\n  %s\n  %s",
				n, String(n), String(rebuilt))
		}
		if len(rebuilt.Children()) != len(n.Children()) {
			t.Errorf("%T: child count changed", n)
		}
	}
}
