package xdm

import (
	"math"
	"testing"
)

// fakeNode is a minimal Node implementation for testing data-model helpers
// without importing the store (which would be an import cycle).
type fakeNode struct {
	kind NodeKind
	name QName
	sv   string
	doc  uint64
	pre  int64
}

func (f *fakeNode) IsNode() bool              { return true }
func (f *fakeNode) Kind() NodeKind            { return f.kind }
func (f *fakeNode) NodeName() QName           { return f.name }
func (f *fakeNode) StringValue() string       { return f.sv }
func (f *fakeNode) TypedValue() Atomic        { return NewUntyped(f.sv) }
func (f *fakeNode) Parent() Node              { return nil }
func (f *fakeNode) ChildrenOf() []Node        { return nil }
func (f *fakeNode) AttributesOf() []Node      { return nil }
func (f *fakeNode) BaseURI() string           { return "" }
func (f *fakeNode) SameNode(o Node) bool      { return o == Node(f) }
func (f *fakeNode) OrderKey() (uint64, int64) { return f.doc, f.pre }
func (f *fakeNode) Root() Node                { return f }

func elem(doc uint64, pre int64, sv string) *fakeNode {
	return &fakeNode{kind: ElementNode, name: LocalName("e"), sv: sv, doc: doc, pre: pre}
}

func TestAtomize(t *testing.T) {
	n := elem(1, 0, "42")
	a := Atomize(n)
	if a.T != TUntyped || a.S != "42" {
		t.Errorf("Atomize(node) = %v %q", a.T, a.S)
	}
	if got := Atomize(NewInteger(3)); got.Int() != 3 {
		t.Error("Atomize(atomic) passes through")
	}
}

// TestEffectiveBoolean covers the paper's BEV rules: (), "", NaN, 0 and
// zero-length strings are false; nodes are true; booleans are themselves.
func TestEffectiveBoolean(t *testing.T) {
	cases := []struct {
		seq  Sequence
		want bool
		fail bool
	}{
		{Sequence{}, false, false},
		{Sequence{True}, true, false},
		{Sequence{False}, false, false},
		{Sequence{NewString("")}, false, false},
		{Sequence{NewString("x")}, true, false},
		{Sequence{NewUntyped("")}, false, false},
		{Sequence{NewInteger(0)}, false, false},
		{Sequence{NewInteger(5)}, true, false},
		{Sequence{NewDouble(math.NaN())}, false, false},
		{Sequence{NewDouble(0.1)}, true, false},
		{Sequence{NewAnyURI("")}, false, false},
		{Sequence{elem(1, 0, "")}, true, false},                // first item node -> true
		{Sequence{elem(1, 0, ""), NewInteger(0)}, true, false}, // still true
		{Sequence{NewInteger(1), NewInteger(2)}, false, true},  // multi-atomic -> error
		{Sequence{Atomic{T: TDate}}, false, true},              // no EBV for dates
	}
	for i, c := range cases {
		got, err := EffectiveBoolean(c.seq)
		if c.fail {
			if !IsCode(err, "FORG0006") {
				t.Errorf("case %d: error = %v, want err:FORG0006", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got != c.want {
			t.Errorf("case %d: EBV = %v, want %v", i, got, c.want)
		}
	}
}

func TestSortDocOrderDedup(t *testing.T) {
	a := elem(1, 5, "a")
	b := elem(1, 2, "b")
	c := elem(2, 0, "c")
	seq, err := SortDocOrderDedup(Sequence{a, c, b, a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("dedup: got %d items", len(seq))
	}
	if seq[0] != Node(b) || seq[1] != Node(a) || seq[2] != Node(c) {
		t.Errorf("order: got %v", seq)
	}
	if _, err := SortDocOrderDedup(Sequence{a, NewInteger(1)}); err == nil {
		t.Error("atomic in node sort must be a type error")
	}
	// Empty and singleton pass through.
	if s, _ := SortDocOrderDedup(Sequence{}); len(s) != 0 {
		t.Error("empty")
	}
	if s, _ := SortDocOrderDedup(Sequence{a}); len(s) != 1 {
		t.Error("singleton")
	}
}

func TestCompareOrder(t *testing.T) {
	a := elem(1, 1, "")
	b := elem(1, 2, "")
	c := elem(2, 0, "")
	if CompareOrder(a, b) >= 0 || CompareOrder(b, a) <= 0 || CompareOrder(a, a) != 0 {
		t.Error("same-document ordering")
	}
	if CompareOrder(b, c) >= 0 {
		t.Error("cross-document ordering by sequence number")
	}
}

func TestSingleAndStringValue(t *testing.T) {
	if _, err := Single(Sequence{}); err == nil {
		t.Error("Single of empty must fail")
	}
	if _, err := Single(Sequence{True, False}); err == nil {
		t.Error("Single of pair must fail")
	}
	if it, err := Single(Sequence{NewInteger(9)}); err != nil || it.(Atomic).Int() != 9 {
		t.Error("Single of singleton")
	}
	if StringValue(elem(1, 0, "txt")) != "txt" {
		t.Error("StringValue of node")
	}
	if StringValue(NewInteger(12)) != "12" {
		t.Error("StringValue of atomic")
	}
}
