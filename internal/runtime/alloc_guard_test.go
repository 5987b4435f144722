package runtime

import (
	"io"
	"testing"
	"unsafe"

	"xqgo/internal/optimizer"
	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xqparse"
)

// TestExecAllocGuard bounds the allocations of one execution (optimized
// plan, serialized to io.Discard) over a 1 000-line Orders document, a
// 400-book Bib document and a 3 000-node Deep document. parent is the count
// before step chains were walked on one cursor; a row is bound at half of
// it, except the rows kept from the earlier guard, which are bound at their
// count with the cursor (child steps still boxes each ID node it emits and
// serializes, so it sits just above half), and sum, which is bound below
// half of its 1 025 with the cursor: a chain that a built-in atomizes is
// atomized by id into untyped atomics held in chunks, not boxed node by
// node. The last four rows are bound just above their count once the last
// for clause recycled its tuple frames and join paths streamed their leaf
// ids, and parent is their count before that (paper FLWOR: 2 816):
// chain-da no longer boxes a node per match, and chain-flwor compares each
// d's text in place. The positional rows are bound just above their count
// once positional bounds stopped the pull and fn:position, fn:last and
// fn:count were read as integers, and parent is their count before that:
// positional pulls ten lines, the count predicate boxes no integer per
// book, and the position arithmetic no longer keeps its input for a
// fn:last it never calls. It counts, not times: no wall-clock assertion
// outside bench/.
func TestExecAllocGuard(t *testing.T) {
	orders := workload.Orders(workload.OrdersConfig{Lines: 1000, Sellers: 10, Seed: 1})
	bib := workload.Bib(workload.BibConfig{Books: 400, Seed: 1})
	deep := workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 1})
	for _, c := range []struct {
		name   string
		src    string
		doc    *store.Document
		parent float64 // allocations per execution before the change
		max    float64 // 0: half of parent
	}{
		{"child steps", `/Order/OrderLine/Item/ID`, orders, 4023, 2030},
		{"predicate path", `/Order/OrderLine[SellersID = "2"]/Item/ID`, orders, 4383, 1390},
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
		{"paper FLWOR", `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{string($line/Item/ID)}</lineItem>`, orders, 2816, 2100},
		{"flwor-construct", `for $b in /bib/book
where $b/price > 90
return <exp year="{$b/@year}">{$b/title/text()}</exp>`, bib, 1192, 1000},
		{"chain-da", `count(//d//a)`, deep, 864, 100},
		{"chain-flwor", `for $x in //b//d where $x = "42" return <hit>{string($x)}</hit>`, deep, 2765, 1720},
		{"positional", `(/Order/OrderLine)[position() le 10]/Item/ID`, orders, 3059, 100},
		{"count-predicate-positional", `/bib/book[count(author) = 3]/author[1]/last`, bib, 1806, 1100},
		{"position-arithmetic", `(/Order/OrderLine)[position() mod 2 = 1]`, orders, 7530, 7520},
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
			t.Errorf("%s: an execution allocates %.0f times, want at most %.0f (%.0f before)",
				c.name, got, max, c.parent)
		}
	}
}

// TestFrameSize pins the binding frame at 80 bytes: every for tuple, focus
// and binding is one, and the pinned flag of a recycled tuple (Frame.pin)
// lives in the padding after hasFocus. A for clause's state stays 80 bytes
// too (a FLWOR run per streamed window allocates one per window), and a
// tuple slot stays in the 160-byte size class.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 80 {
		t.Errorf("a Frame is %d bytes, want 80", n)
	}
	if n := unsafe.Sizeof(forClauseState{}); n != 80 {
		t.Errorf("a forClauseState is %d bytes, want 80", n)
	}
	if n := unsafe.Sizeof(tupleSlot{}); n > 160 {
		t.Errorf("a tupleSlot is %d bytes, want at most 160", n)
	}
}
