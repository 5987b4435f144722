package runtime

import (
	"io"
	goruntime "runtime"
	"testing"
	"unsafe"

	"xqgo/internal/optimizer"
	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
	"xqgo/internal/xqparse"
)

// TestExecAllocGuard bounds the allocations of one execution (optimized
// plan, serialized to io.Discard) over a 1 000-line Orders document, a
// 400-book Bib document and a 3 000-node Deep document. The documents are
// warmed past their rent first, as a served document is by its first
// queries: each hands out one box per node, so the next node it emits
// buys its slab of shared handles and no stored node is boxed afterwards.
// A row is bound just above its count; parent is its count before
// aggregates folded as they pulled, integer arithmetic ran on int64s and a
// stored subtree serialized without a stack of open elements. What is left
// is what an execution builds besides stored nodes: constructed elements,
// tuple frames, sort keys, the strings fn:string builds, a fold's set and
// results. It counts, not times: no wall-clock assertion outside bench/.
func TestExecAllocGuard(t *testing.T) {
	orders := workload.Orders(workload.OrdersConfig{Lines: 1000, Sellers: 10, Seed: 1})
	bib := workload.Bib(workload.BibConfig{Books: 400, Seed: 1})
	deep := workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 1})
	for _, d := range []*store.Document{orders, bib, deep} {
		for id := int32(0); id < int32(d.NumNodes()); id++ {
			d.Node(id)
		}
	}
	for _, c := range []struct {
		name   string
		src    string
		doc    *store.Document
		parent float64 // allocations per execution at the parent
		max    float64
	}{
		{"child steps", `/Order/OrderLine/Item/ID`, orders, 1011, 20},
		{"predicate path", `/Order/OrderLine[SellersID = "2"]/Item/ID`, orders, 135, 25},
		{"construct", `<summary lines="{count(/Order/OrderLine)}">{
  for $l in /Order/OrderLine[Item/Quantity = 20]
  return <big id="{$l/Item/ID}" seller="{$l/SellersID}"/>
}</summary>`, orders, 288, 300},
		{"order-by", `for $l in /Order/OrderLine[SellersID eq "3"]
order by $l/Item/ID
return string($l/Item/ID)`, orders, 873, 800},
		{"sum", `sum(/Order/OrderLine/Item/Quantity)`, orders, 25, 15},
		{"distinct-join", `for $y in distinct-values(/bib/book/@year)[. >= "2000"]
order by $y
return <y v="{$y}" n="{count(/bib/book[@year = $y])}"/>`, bib, 199, 200},
		{"count-value-predicate", `count(/bib/book[publisher = "Springer Verlag"])`, bib, 14, 20},
		{"paper FLWOR", `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{string($line/Item/ID)}</lineItem>`, orders, 1033, 950},
		{"flwor-construct", `for $b in /bib/book
where $b/price > 90
return <exp year="{$b/@year}">{$b/title/text()}</exp>`, bib, 500, 520},
		{"chain-da", `count(//d//a)`, deep, 73, 80},
		{"chain-flwor", `for $x in //b//d where $x = "42" return <hit>{string($x)}</hit>`, deep, 942, 960},
		{"positional", `(/Order/OrderLine)[position() le 10]/Item/ID`, orders, 27, 25},
		{"count-predicate-positional", `/bib/book[count(author) = 3]/author[1]/last`, bib, 436, 370},
		{"position-arithmetic", `(/Order/OrderLine)[position() mod 2 = 1]`, orders, 6515, 25},
		{"distinct-values", `count(distinct-values(/bib/book/@year))`, bib, 58, 55},
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
		if got > c.max {
			t.Errorf("%s: an execution allocates %.0f times, want at most %.0f (%.0f at the parent)",
				c.name, got, c.max, c.parent)
		}
	}
}

// TestFrameSize pins the binding frame at 80 bytes: every for tuple, focus
// and binding is one, and the pinned flag of a recycled tuple (Frame.pin)
// lives in the padding after hasFocus. A for clause's state stays 64 bytes
// (a FLWOR run per streamed window allocates one per window), and a tuple
// slot stays in the 160-byte size class.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 80 {
		t.Errorf("a Frame is %d bytes, want 80", n)
	}
	if n := unsafe.Sizeof(forClauseState{}); n != 64 {
		t.Errorf("a forClauseState is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(tupleSlot{}); n > 160 {
		t.Errorf("a tupleSlot is %d bytes, want at most 160", n)
	}
}

// arithSink keeps TestArithClosureSize's closures on the heap.
var arithSink seqFn

// TestArithClosureSize pins the generic arithmetic closure (arithSeq) at 32
// bytes a compile: its code pointer, two operands and the operator. Integer
// arithmetic has its own compiled form, so the generic closure carries
// nothing for it, and every other arithmetic expression keeps its size.
func TestArithClosureSize(t *testing.T) {
	operand := func(*Frame) Iter { return emptyIter }
	const n = 10000
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		arithSink = arithSeq(xdm.OpAdd, operand, operand)
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 32 {
		t.Errorf("an arithmetic closure takes %d bytes, want at most 32", per)
	}
}
