package runtime

import (
	"io"
	"testing"

	"xqgo/internal/optimizer"
	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xqparse"
)

// TestExecAllocGuard bounds the allocations of one execution (optimized
// plan, serialized to io.Discard) over a 1 000-line Orders document and a
// 400-book Bib document. parent is the count before step chains were
// walked on one cursor; a row is bound at half of it, except the three
// rows kept from the earlier guard, which are bound at their count with
// the cursor (child steps still boxes each ID node it emits and
// serializes, so it sits just above half), and sum, which is bound below
// half of its 1 025 with the cursor: a chain that a built-in atomizes is
// atomized by id into untyped atomics held in chunks, not boxed node by
// node. It counts, not times: no wall-clock assertion outside bench/.
func TestExecAllocGuard(t *testing.T) {
	orders := workload.Orders(workload.OrdersConfig{Lines: 1000, Sellers: 10, Seed: 1})
	bib := workload.Bib(workload.BibConfig{Books: 400, Seed: 1})
	for _, c := range []struct {
		name   string
		src    string
		doc    *store.Document
		parent float64 // allocations per execution before the change
		max    float64 // 0: half of parent
	}{
		{"child steps", `/Order/OrderLine/Item/ID`, orders, 4023, 2030},
		{"predicate path", `/Order/OrderLine[SellersID = "2"]/Item/ID`, orders, 4383, 1390},
		{"paper FLWOR", `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{string($line/Item/ID)}</lineItem>`, orders, 6218, 2850},
		{"construct", `<summary lines="{count(/Order/OrderLine)}">{
  for $l in /Order/OrderLine[Item/Quantity = 20]
  return <big id="{$l/Item/ID}" seller="{$l/SellersID}"/>
}</summary>`, orders, 7810, 0},
		{"order-by", `for $l in /Order/OrderLine[SellersID eq "3"]
order by $l/Item/ID
return string($l/Item/ID)`, orders, 5721, 0},
		{"sum", `sum(/Order/OrderLine/Item/Quantity)`, orders, 3033, 512},
		{"distinct-join", `for $y in distinct-values(/bib/book/@year)[. >= "2000"]
order by $y
return <y v="{$y}" n="{count(/bib/book[@year = $y])}"/>`, bib, 17037, 0},
		{"count-value-predicate", `count(/bib/book[publisher = "Springer Verlag"])`, bib, 1621, 0},
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
			if err := p.ExecuteToWriter(&Dynamic{ContextItem: c.doc.RootNode()}, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		max := c.max
		if max == 0 {
			max = c.parent / 2
		}
		if got > max {
			t.Errorf("%s: an execution allocates %.0f times, want at most %.0f (%.0f before step chains)",
				c.name, got, max, c.parent)
		}
	}
}
