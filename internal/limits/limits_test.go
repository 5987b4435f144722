package limits

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestBudgetChargeWithinCap(t *testing.T) {
	b := NewBudget(100, nil)
	if err := b.Charge(60); err != nil {
		t.Fatalf("charge 60/100: %v", err)
	}
	if err := b.Charge(40); err != nil {
		t.Fatalf("charge 100/100: %v", err)
	}
	if got := b.Used(); got != 100 {
		t.Errorf("Used = %d, want 100", got)
	}
	if got := b.Peak(); got != 100 {
		t.Errorf("Peak = %d, want 100", got)
	}
	if got := b.Trips(); got != 0 {
		t.Errorf("Trips = %d, want 0", got)
	}
}

func TestBudgetOverageTripsStructuredError(t *testing.T) {
	b := NewBudget(100, nil)
	b.SetTraceID("t-123")
	if err := b.Charge(90); err != nil {
		t.Fatalf("charge 90: %v", err)
	}
	err := b.Charge(20)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("overage error = %v, want *BudgetError", err)
	}
	if be.Limit != 100 || be.Requested != 20 || be.Used != 110 {
		t.Errorf("BudgetError = %+v", be)
	}
	if be.Code() != ErrCode {
		t.Errorf("Code = %q, want %q", be.Code(), ErrCode)
	}
	msg := be.Error()
	if !strings.Contains(msg, "err:XQGO0001") || !strings.Contains(msg, "trace t-123") {
		t.Errorf("message %q missing code or trace id", msg)
	}
	// The charge stays on the books until released.
	if got := b.Used(); got != 110 {
		t.Errorf("Used after trip = %d, want 110", got)
	}
	if got := b.Trips(); got != 1 {
		t.Errorf("Trips = %d, want 1", got)
	}
}

func TestBudgetZeroCapTracksWithoutEnforcing(t *testing.T) {
	b := NewBudget(0, nil)
	if err := b.Charge(1 << 40); err != nil {
		t.Fatalf("uncapped charge: %v", err)
	}
	if got := b.Used(); got != 1<<40 {
		t.Errorf("Used = %d", got)
	}
}

func TestBudgetDischargeAndReleaseAll(t *testing.T) {
	g := NewGovernor(1000)
	b := g.Governed(500)
	if err := b.Charge(300); err != nil {
		t.Fatal(err)
	}
	b.Discharge(100)
	if got, want := b.Used(), int64(200); got != want {
		t.Errorf("Used = %d, want %d", got, want)
	}
	if got, want := g.InUse(), int64(200); got != want {
		t.Errorf("governor InUse = %d, want %d", got, want)
	}
	b.ReleaseAll()
	if got := b.Used(); got != 0 {
		t.Errorf("Used after ReleaseAll = %d", got)
	}
	if got := g.InUse(); got != 0 {
		t.Errorf("governor InUse after ReleaseAll = %d", got)
	}
	// Peak survives release for post-mortem accounting.
	if got := b.Peak(); got != 300 {
		t.Errorf("Peak after ReleaseAll = %d, want 300", got)
	}
}

func TestNilBudgetIsNoOp(t *testing.T) {
	var b *Budget
	if err := b.Charge(100); err != nil {
		t.Errorf("nil Charge: %v", err)
	}
	b.Discharge(100)
	b.ReleaseAll()
	b.SetTraceID("x")
	if b.Used()|b.Peak()|b.Trips()|b.Max() != 0 {
		t.Error("nil budget accessors should all be zero")
	}
}

func TestNilGovernorIsNoOp(t *testing.T) {
	var g *Governor
	if g.Overloaded() {
		t.Error("nil governor overloaded")
	}
	g.NoteShed()
	g.SetSoftLimit(10)
	if g.InUse()|g.Sheds()|g.SoftLimit() != 0 {
		t.Error("nil governor accessors should all be zero")
	}
}

func TestGovernorOverloadThreshold(t *testing.T) {
	g := NewGovernor(1000)
	b := g.Governed(0)
	if err := b.Charge(799); err != nil {
		t.Fatal(err)
	}
	if g.Overloaded() {
		t.Errorf("overloaded at %d/1000", g.InUse())
	}
	if err := b.Charge(1); err != nil { // 800 = 4/5 of the cap
		t.Fatal(err)
	}
	if !g.Overloaded() {
		t.Errorf("not overloaded at %d/1000", g.InUse())
	}
	b.ReleaseAll()
	if g.Overloaded() {
		t.Error("overloaded after release")
	}
}

func TestBudgetConcurrentCharges(t *testing.T) {
	g := NewGovernor(0)
	b := g.Governed(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := b.Charge(3); err != nil {
					t.Error(err)
					return
				}
				b.Discharge(1)
			}
		}()
	}
	wg.Wait()
	want := int64(8 * 1000 * 2)
	if got := b.Used(); got != want {
		t.Errorf("Used = %d, want %d", got, want)
	}
	if got := g.InUse(); got != want {
		t.Errorf("governor InUse = %d, want %d", got, want)
	}
	b.ReleaseAll()
	if got := g.InUse(); got != 0 {
		t.Errorf("governor InUse after release = %d", got)
	}
}
