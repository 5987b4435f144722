package store_test

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"xqgo/internal/store"
	"xqgo/internal/xmlparse"
)

// lines returns a document of n lines, four nodes a line.
func lines(n int) string {
	var b strings.Builder
	b.WriteString("<Order>")
	for i := 0; i < n; i++ {
		b.WriteString(`<Line n="1"><ID>x</ID></Line>`)
	}
	b.WriteString("</Order>")
	return b.String()
}

func parse(t *testing.T, src string) *store.Document {
	t.Helper()
	d, err := xmlparse.ParseString(src, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// payRent hands out one box per node: a finished document's whole rent.
func payRent(d *store.Document) {
	for id := int32(0); id < int32(d.NumNodes()); id++ {
		d.Node(id)
	}
}

// TestNodeHandleRent: a finished document boxes until the boxes it handed
// out add up to its node count and builds no chunk meanwhile; the next
// request buys the slab and from then on every request for an id returns
// the same handle, batch or single.
func TestNodeHandleRent(t *testing.T) {
	d := parse(t, lines(200))
	n := d.NumNodes()
	if n <= 512 || n%256 == 0 {
		t.Fatalf("want more than two chunks of nodes and a tail, have %d nodes", n)
	}
	if a, b := d.Node(5), d.Node(5); a == b {
		t.Error("a document that has not paid its rent must box")
	}
	h := d.Handles()
	for id := int32(0); id < int32(n-3); id++ {
		h.Node(id)
	}
	h.Pay()
	if d.Bought() || d.ChunksBuilt() != 0 {
		t.Fatalf("rent %d of %d paid: bought=%v, %d chunks built", n-1, n, d.Bought(), d.ChunksBuilt())
	}
	d.Node(7) // the n-th box: the rent is paid
	if d.Bought() {
		t.Fatal("the slab is bought by the request after the rent, not the last box")
	}
	first := d.Node(300)
	if !d.Bought() || d.ChunksBuilt() != 1 {
		t.Fatalf("after the rent: bought=%v, %d chunks built, want one", d.Bought(), d.ChunksBuilt())
	}
	h = d.Handles()
	if got := h.Node(300); got != first || d.Node(300) != first {
		t.Error("a bought slab must return one handle per id")
	}
	last := d.Node(int32(n - 1)) // in the tail after the last full chunk
	if last.ID != int32(n-1) || last.D != d || d.Node(int32(n-1)) != last {
		t.Errorf("tail handle = {%p %d}, want the document's node %d, shared", last.D, last.ID, n-1)
	}
	if first.ID != 300 || first.D != d || d.ChunksBuilt() != 1 {
		t.Errorf("handle = {%p %d}, %d chunks built", first.D, first.ID, d.ChunksBuilt())
	}
	if p := first.Parent().(*store.Node); p != d.Node(p.ID) {
		t.Error("Parent must return the shared handle")
	}
	if d.RootNode() != d.Node(0) || first.Root() != d.Node(0) {
		t.Error("RootNode and Root must return the shared handle")
	}
}

// TestNodeHandleRace: two goroutines touch the first chunk of a fresh,
// rent-paid document at once (buying the slab and building the chunk
// race together) and get the same pointer. It runs under -race at
// GOMAXPROCS=8 in CI.
func TestNodeHandleRace(t *testing.T) {
	src := lines(100)
	for round := 0; round < 50; round++ {
		d := parse(t, src)
		payRent(d)
		var got [2]*store.Node
		var start, done sync.WaitGroup
		start.Add(1)
		for g := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[g] = d.Node(int32(g + 1))
			}()
		}
		start.Done()
		done.Wait()
		if got[0] != d.Node(1) || got[1] != d.Node(2) {
			t.Fatalf("round %d: racing touches returned %p and %p, the slab holds %p and %p",
				round, got[0], got[1], d.Node(1), d.Node(2))
		}
		if d.ChunksBuilt() != 1 {
			t.Fatalf("round %d: %d chunks built, want 1", round, d.ChunksBuilt())
		}
	}
}

// TestNodeHandleLazy: a document under ParseIncremental boxes every node
// it hands out and pays no rent until it finishes, however many it hands
// out; once finished it rents like any other.
func TestNodeHandleLazy(t *testing.T) {
	d := xmlparse.ParseIncremental(strings.NewReader(lines(2000)), xmlparse.Options{}).Document()
	steps := 0
	for ; d.Lazy(); steps++ {
		for i := 0; i < 64; i++ {
			if d.Node(0) == d.Node(0) {
				t.Fatal("a document under construction must box")
			}
		}
		h := d.Handles()
		h.Node(0)
		h.Pay()
		if d.Bought() {
			t.Fatal("a document under construction bought a slab")
		}
		if _, err := d.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if steps < 2 || d.Node(0) == d.Node(0) || d.Bought() {
		t.Fatalf("after %d increments: a just-finished document must rent before it buys", steps)
	}
	payRent(d)
	if d.Node(0) != d.Node(0) {
		t.Fatal("a finished document that paid its rent must share handles")
	}
}

// TestNodeHandleNoAlias: the handles of two documents with the same
// content never alias, and each names its own document.
func TestNodeHandleNoAlias(t *testing.T) {
	src := lines(100)
	a, b := parse(t, src), parse(t, src)
	payRent(a)
	payRent(b)
	for id := int32(0); id < int32(a.NumNodes()); id++ {
		ha, hb := a.Node(id), b.Node(id)
		if ha == hb || ha.D != a || hb.D != b || ha.ID != id || hb.ID != id {
			t.Fatalf("node %d: handles %p {%p %d} and %p {%p %d}", id, ha, ha.D, ha.ID, hb, hb.D, hb.ID)
		}
		if ha.SameNode(hb) || !ha.SameNode(a.Node(id)) {
			t.Fatalf("node %d: identity across documents", id)
		}
	}
}

// TestNodeHandleDocumentSize pins a Document at 288 bytes, its size class:
// every constructed fragment and streamed window is one, and the rent
// counter shares a word with HasRoot to keep it there.
func TestNodeHandleDocumentSize(t *testing.T) {
	if n := unsafe.Sizeof(store.Document{}); n != 288 {
		t.Errorf("a Document is %d bytes, want 288", n)
	}
}
