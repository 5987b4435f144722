package streamexec

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xqgo/internal/serializer"
	"xqgo/internal/workload"
	"xqgo/internal/xmlscan"
)

const paperFLWOR = `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{string($line/Item/ID)}</lineItem>`

// tokenize scans doc once into tokens a test can replay, so a measurement
// of the evaluator does not include the tokenizer.
func tokenize(t testing.TB, doc string) []*xmlscan.Token {
	t.Helper()
	sc := xmlscan.New(strings.NewReader(doc))
	var toks []*xmlscan.Token
	for {
		tok, err := sc.Next()
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatal(err)
		}
		c := *tok
		c.Data = bytes.Clone(tok.Data)
		c.Attr = slices.Clone(tok.Attr)
		for i := range c.Attr {
			c.Attr[i].Value = bytes.Clone(c.Attr[i].Value)
		}
		toks = append(toks, &c)
	}
}

// TestWindowAllocGuard pins the fixed cost of a window: the paper's FLWOR
// over an Orders feed may allocate at most 35 heap objects per window with
// the tokenizer excluded. A fresh mini-store, drain buffers and root frame
// per window were about 75.
func TestWindowAllocGuard(t *testing.T) {
	const lines = 500
	toks := tokenize(t, workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 10, Seed: 7})))
	prog, _, _ := compileStream(t, paperFLWOR)
	if prog.Class() != BoundedBuffer {
		t.Fatalf("class = %v (%s)", prog.Class(), prog.Reason())
	}
	var windows int64
	perRun := testing.AllocsPerRun(5, func() {
		d := NewDispatcher(Env{})
		m := d.write(prog, serializer.New(io.Discard, serializer.Options{OmitXMLDecl: true}))
		for _, tok := range toks {
			if _, err := d.Token(tok); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		windows = m.Stats().Windows
	})
	if windows != lines {
		t.Fatalf("windows = %d, want %d", windows, lines)
	}
	if perWindow := perRun / lines; perWindow > 35 {
		t.Fatalf("%.1f heap objects per window, want at most 35", perWindow)
	} else {
		t.Logf("%.1f heap objects per window", perWindow)
	}
}

// memberOutcome is what one member of a dispatcher shows its owner.
type memberOutcome struct {
	results []string
	stats   Stats
	err     error
}

// dispatch runs progs as the subscriptions of one Dispatcher over doc.
// Delivered slices are kept as they are and read only after the feed ended,
// when every later window has reused the arena and the framing buffer.
func dispatch(t *testing.T, progs []*Program, doc string) []memberOutcome {
	t.Helper()
	d := NewDispatcher(Env{})
	members := make([]*Member, len(progs))
	kept := make([][][]byte, len(progs))
	for i, p := range progs {
		i := i
		members[i] = d.Subscribe(p, func(x []byte) error {
			kept[i] = append(kept[i], x)
			return nil
		})
	}
	feed(t, d, doc)
	out := make([]memberOutcome, len(progs))
	for i, m := range members {
		out[i] = memberOutcome{stats: m.Stats(), err: m.Err()}
		out[i].stats.LastResultUnixNano = 0
		for _, x := range kept[i] {
			out[i].results = append(out[i].results, string(x))
		}
	}
	return out
}

// TestSharedWindowsMatchSoloAndStore: members of a shared window group, in
// any registration order, get what they get alone
// on the feed, and what the store engine computes over the materialized
// document — the oracle that never saw a reused arena.
func TestSharedWindowsMatchSoloAndStore(t *testing.T) {
	const spaced = `<bib>
  <book year="1994"> <title>TCP/IP Illustrated</title> <author>Stevens</author> <price>65.95</price> </book>
  <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price>
    <!-- second edition --></book>
  <book year="1994">&#160;<title>Advanced Unix</title><author>Stevens</author><price>55.48</price></book>
  <book year="1999"><title>Economics</title><price>129.95</price>tail text</book>
</bib>`
	queries := []string{
		`/bib/book[@year = "1994"]/title`,
		`for $b in /bib/book where $b/price > 50 return <entry>{$b/title}</entry>`,
		`/bib/book[author = "Stevens"]`,
		`/bib/book/text()`,
		`/bib/book[2]`, // positional: its window is the whole of /bib
		`for $b in /bib/book return <n>{count($b/author)}</n>`,
		`/bib/book/title`, // identity: a group of its own
		`//author`,        // nested identity: a group of its own
	}
	progs := make([]*Program, len(queries))
	solo := make([]memberOutcome, len(queries))
	for i, src := range queries {
		prog, q, ro := compileStream(t, src)
		progs[i] = prog
		solo[i] = dispatch(t, []*Program{prog}, spaced)[0]
		if got, want := strings.Join(solo[i].results, ""), storeEval(t, q, ro, spaced, nil); got != want {
			t.Errorf("%s:\n stream: %q\n store:  %q", src, got, want)
		}
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 5, 3, 1, 6, 4, 2, 0}, {2, 0}, {4, 6, 1}} {
		picked := make([]*Program, len(order))
		for i, qi := range order {
			picked[i] = progs[qi]
		}
		shared := dispatch(t, picked, spaced)
		for i, qi := range order {
			if !reflect.DeepEqual(shared[i], solo[qi]) {
				t.Errorf("%s (registration %v):\n shared: %+v\n solo:   %+v",
					queries[qi], order, shared[i], solo[qi])
			}
		}
	}
}

// TestGroupingBySpine: residual programs over the same child-only spine share
// one runner; identity programs and other spines do not.
func TestGroupingBySpine(t *testing.T) {
	d := NewDispatcher(Env{})
	for _, src := range []string{
		`/bib/book[@year = "1994"]/title`,
		`for $b in /bib/book where $b/price > 50 return $b/title`,
		`/bib/book/title`,    // identity, spine /bib/book/title
		`/bib/book`,          // identity, same spine as the residual group
		`/bib/*[price > 50]`, // another name test is another spine
		`/bib/book[2]`,       // positional: spine /bib
	} {
		prog, _, _ := compileStream(t, src)
		d.Subscribe(prog, func([]byte) error { return nil })
	}
	var sizes []int
	for _, r := range d.runners {
		sizes = append(sizes, len(r.members))
	}
	if want := []int{2, 1, 1, 1, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("group sizes = %v, want %v", sizes, want)
	}
}
