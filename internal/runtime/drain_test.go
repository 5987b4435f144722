package runtime

// Unit tests for draining: a drain keeps every item in order and charges
// its growth past the floor, a LazySeq keeps the items before an error,
// and cursors over one LazySeq agree however each is pulled.

import (
	"errors"
	"testing"

	"xqgo/internal/limits"
	"xqgo/internal/xdm"
)

// stubIter yields the given items one at a time, then an optional error.
type stubIter struct {
	items []xdm.Item
	pos   int
	err   error
}

func (s *stubIter) Next() (xdm.Item, bool, error) {
	if s.pos < len(s.items) {
		it := s.items[s.pos]
		s.pos++
		return it, true, nil
	}
	if s.err != nil {
		e := s.err
		s.err = nil
		return nil, false, e
	}
	return nil, false, nil
}

func ints(vals ...int64) xdm.Sequence {
	out := make(xdm.Sequence, len(vals))
	for i, v := range vals {
		out[i] = xdm.NewInteger(v)
	}
	return out
}

func intsTo(n int) xdm.Sequence {
	out := make(xdm.Sequence, n)
	for i := range out {
		out[i] = xdm.NewInteger(int64(i))
	}
	return out
}

// Items pulled before an error are delivered, and cached for every cursor:
// the error comes after them, not in their place.
func TestLazySeqItemsBeforeError(t *testing.T) {
	boom := errors.New("boom")
	seq := NewLazySeq(&stubIter{items: ints(7, 8), err: boom})
	for _, c := range []Iter{seq.Iterator(), seq.Iterator()} {
		for _, want := range []int64{7, 8} {
			x, ok, err := c.Next()
			if err != nil || !ok || x.(xdm.Atomic).AsInt() != want {
				t.Fatalf("got %v ok=%v err=%v, want %d", x, ok, err, want)
			}
		}
		if _, _, err := c.Next(); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom after the items", err)
		}
	}
	if _, err := seq.All(); !errors.Is(err, boom) {
		t.Fatalf("All err = %v, want boom", err)
	}
}

func TestDrain(t *testing.T) {
	dyn := &Dynamic{}
	want := budgetDrainFloor*2 + 17 // several doublings and a partly filled tail
	out, err := drain(dyn, &stubIter{items: intsTo(want)})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(out) != want {
		t.Fatalf("len = %d, want %d", len(out), want)
	}
	for i, x := range out {
		if x.(xdm.Atomic).AsInt() != int64(i) {
			t.Fatalf("out[%d] = %v, want %d", i, x, i)
		}
	}

	boom := errors.New("boom")
	if _, err := drain(dyn, &stubIter{items: ints(1, 2), err: boom}); !errors.Is(err, boom) {
		t.Fatalf("drain error = %v, want boom", err)
	}
}

// A drain up to the floor charges nothing; past it, each doubling charges
// the slots it adds, and a budget too small for them stops the drain.
func TestDrainChargesPastFloor(t *testing.T) {
	b := limits.NewBudget(1<<30, nil)
	if _, err := drain(&Dynamic{Budget: b}, &stubIter{items: intsTo(budgetDrainFloor)}); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Fatalf("a drain of %d items charged %d bytes, want 0", budgetDrainFloor, b.Used())
	}
	if _, err := drain(&Dynamic{Budget: b}, &stubIter{items: intsTo(budgetDrainFloor + 1)}); err != nil {
		t.Fatal(err)
	}
	if want := int64(budgetDrainFloor * budgetItemBytes); b.Used() != want {
		t.Fatalf("a drain past the floor charged %d bytes, want %d", b.Used(), want)
	}
	small := limits.NewBudget(budgetDrainFloor*budgetItemBytes-1, nil)
	_, err := drain(&Dynamic{Budget: small}, &stubIter{items: intsTo(budgetDrainFloor + 1)})
	var be *limits.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a budget error", err)
	}
}

// Two cursors over one LazySeq, one drained and one pulled item by item,
// see the same sequence: the drain extends the shared cache that the item
// cursor replays.
func TestLazyCursorDrainedAndPulled(t *testing.T) {
	seq := NewLazySeq(&stubIter{items: ints(1, 2, 3, 4, 5, 6, 7, 8, 9)})
	a, b := seq.Iterator(), seq.Iterator()

	// a consumes two items first.
	for i := int64(1); i <= 2; i++ {
		x, ok, err := a.Next()
		if err != nil || !ok || x.(xdm.Atomic).AsInt() != i {
			t.Fatalf("item cursor: got %v ok=%v err=%v, want %d", x, ok, err, i)
		}
	}
	got, err := drain(&Dynamic{}, b)
	if err != nil || len(got) != 9 {
		t.Fatalf("drained cursor: %d items, err %v; want 9", len(got), err)
	}
	for i, x := range got {
		if x.(xdm.Atomic).AsInt() != int64(i+1) {
			t.Fatalf("drained cursor item %d = %v, want %d", i, x, i+1)
		}
	}
	// a continues from its own position over the now-cached sequence.
	for i := int64(3); i <= 9; i++ {
		x, ok, err := a.Next()
		if err != nil || !ok || x.(xdm.Atomic).AsInt() != i {
			t.Fatalf("item cursor after the drain: got %v ok=%v err=%v, want %d", x, ok, err, i)
		}
	}
	if _, ok, err := a.Next(); ok || err != nil {
		t.Fatalf("item cursor past the end: ok=%v err=%v", ok, err)
	}
}
