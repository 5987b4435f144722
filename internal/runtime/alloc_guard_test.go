package runtime

import (
	"io"
	"testing"

	"xqgo/internal/optimizer"
	"xqgo/internal/workload"
	"xqgo/internal/xqparse"
)

// TestExecAllocGuard bounds the allocations of one execution (optimized
// plan, serialized to io.Discard) over a 1 000-line Orders document at half
// of what the parent of this guard's commit allocated: navigation tests
// store ids and boxes only the nodes a step emits, a path memoizes its left
// input only for fn:last, and conditions evaluate to a bool. It counts, not
// times: no wall-clock assertion outside bench/.
func TestExecAllocGuard(t *testing.T) {
	doc := workload.Orders(workload.OrdersConfig{Lines: 1000, Sellers: 10, Seed: 1})
	for _, c := range []struct {
		name   string
		src    string
		parent float64 // allocations per execution before the change
	}{
		{"child steps", `/Order/OrderLine/Item/ID`, 11042},
		{"predicate path", `/Order/OrderLine[SellersID = "2"]/Item/ID`, 11011},
		{"paper FLWOR", `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{string($line/Item/ID)}</lineItem>`, 16316},
	} {
		q, err := xqparse.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(optimizer.Optimize(q, optimizer.Options{}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			if err := p.ExecuteToWriter(&Dynamic{ContextItem: doc.RootNode()}, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.parent/2 {
			t.Errorf("%s: an execution allocates %.0f times, want at most %.0f (half of %.0f)",
				c.name, got, c.parent/2, c.parent)
		}
	}
}
