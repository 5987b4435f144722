package streamexec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
	"xqgo/internal/projection"
	"xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

const bibDoc = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price></book>
  <book year="1994"><title>Advanced Unix</title><author>Stevens</author><price>55.48</price></book>
</bib>`

const sectionsDoc = `<doc><section id="a"><title>A</title><section id="a1"><title>A1</title></section></section><section id="b"><title>B</title></section></doc>`

// compileStream parses, optimizes and stream-compiles a query — the same
// pipeline the public API runs before handing the plan to this package.
func compileStream(t *testing.T, src string) (*Program, *expr.Query, runtime.Options) {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	q = optimizer.Optimize(q, optimizer.Options{})
	ro := runtime.Options{}
	return Compile(q, ro), q, ro
}

// storeEval runs the plan on the regular store engine (the differential
// oracle).
func storeEval(t *testing.T, q *expr.Query, ro runtime.Options, doc string, vars map[string]xdm.Sequence) string {
	t.Helper()
	d, err := xmlparse.ParseString(doc, xmlparse.Options{URI: "mem:doc"})
	if err != nil {
		t.Fatalf("parse doc: %v", err)
	}
	prep, err := runtime.Compile(q, ro)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var buf bytes.Buffer
	if err := prep.ExecuteToWriter(&runtime.Dynamic{ContextItem: d.RootNode(), Vars: vars}, &buf); err != nil {
		t.Fatalf("store execute: %v", err)
	}
	return buf.String()
}

// streamEval runs the program over a live token stream in shared-writer
// mode and returns the serialized output.
func streamEval(t *testing.T, prog *Program, doc string, env Env) (string, Stats) {
	t.Helper()
	var buf bytes.Buffer
	sw := serializer.New(&buf, serializer.Options{OmitXMLDecl: true})
	d := NewDispatcher(env)
	m := d.write(prog, sw)
	feed(t, d, doc)
	if err := sw.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}
	return buf.String(), m.Stats()
}

// feed runs doc through d's feed loop, building nothing.
func feed(t *testing.T, d *Dispatcher, doc string) {
	t.Helper()
	if _, err := d.Feed(strings.NewReader(doc), xmlparse.Options{Projection: projection.New()}); err != nil {
		t.Fatalf("feed: %v", err)
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		query string
		want  Class
	}{
		{`/bib/book`, FullyStreamable},
		{`/bib/book/title`, FullyStreamable},
		{`//book`, BoundedBuffer},
		{`/bib//title`, BoundedBuffer},
		{`/bib/book[@year = "1994"]`, BoundedBuffer},
		{`/bib/book/title/text()`, BoundedBuffer},
		{`/bib/book[2]`, BoundedBuffer},
		{`for $b in /bib/book where $b/price > 50 return $b/title`, BoundedBuffer},
		{`for $b in /bib/book return <entry>{$b/title}</entry>`, BoundedBuffer},
		{`declare variable $y external; /bib/book[@year = $y]`, BoundedBuffer},

		{`count(/bib/book)`, StoreRequired},
		{`.`, StoreRequired},
		{`/`, StoreRequired},
		{`/bib/book/..`, StoreRequired},
		{`//book[@year = "1994"]`, StoreRequired},
		{`for $b in /bib/book return fn:string(.)`, StoreRequired},
		{`for $b in /bib/book return fn:doc("other.xml")`, StoreRequired},
		{`for $b in /bib/book order by $b/title return $b`, StoreRequired},
		{`declare variable $n := 3; /bib/book[$n]`, StoreRequired},
		{`for $b in /bib/book return $b/preceding-sibling::book`, StoreRequired},
	}
	for _, c := range cases {
		prog, _, _ := compileStream(t, c.query)
		if prog.Class() != c.want {
			t.Errorf("%s: class = %v (reason %q), want %v",
				c.query, prog.Class(), prog.Reason(), c.want)
		}
	}
}

func TestDifferentialAgainstStoreEngine(t *testing.T) {
	queries := []string{
		`/bib/book`,
		`/bib/book/title`,
		`/bib/book[@year = "1994"]`,
		`/bib/book[@year = "1994"]/title`,
		`/bib/book/title/text()`,
		`/bib/book[2]`,
		`for $b in /bib/book where $b/price > 50 return $b/title`,
		`for $b in /bib/book return <entry>{$b/title}</entry>`,
		`for $b in /bib/book where $b/author = "Stevens" return fn:string($b/title)`,
		`//title`,
		`/bib//author`,
		// Boolean, but positional: the window stops one level up.
		`/bib/book[position() = 2]`,
		`/bib/book[last() eq position()]/title`,
		`/bib/book[title/1]`, // numeric: one per title
		`for $b in /bib/book return $b/title/string()`,
	}
	for _, src := range queries {
		prog, q, ro := compileStream(t, src)
		if !prog.Streamable() {
			t.Errorf("%s: unexpectedly store-required (%s)", src, prog.Reason())
			continue
		}
		want := storeEval(t, q, ro, bibDoc, nil)
		got, stats := streamEval(t, prog, bibDoc, Env{})
		if got != want {
			t.Errorf("%s:\n stream: %q\n store:  %q", src, got, want)
		}
		if stats.Windows == 0 {
			t.Errorf("%s: no windows opened", src)
		}
	}
}

func TestNestedWindowsKeepDocumentOrder(t *testing.T) {
	prog, q, ro := compileStream(t, `//section`)
	if prog.Class() != BoundedBuffer {
		t.Fatalf("class = %v (%s)", prog.Class(), prog.Reason())
	}
	want := storeEval(t, q, ro, sectionsDoc, nil)
	got, stats := streamEval(t, prog, sectionsDoc, Env{})
	if got != want {
		t.Fatalf("nested windows:\n stream: %q\n store:  %q", got, want)
	}
	if stats.Windows != 3 || stats.Results != 3 {
		t.Fatalf("windows=%d results=%d, want 3/3", stats.Windows, stats.Results)
	}
	if stats.PeakBufferBytes == 0 {
		t.Fatalf("nested inner window should have buffered bytes")
	}
}

func TestExternalVariables(t *testing.T) {
	src := `declare variable $y external; /bib/book[@year = $y]/title`
	prog, q, ro := compileStream(t, src)
	if !prog.Streamable() {
		t.Fatalf("store-required: %s", prog.Reason())
	}
	vars := map[string]xdm.Sequence{"y": {xdm.NewString("1994")}}
	want := storeEval(t, q, ro, bibDoc, vars)
	got, _ := streamEval(t, prog, bibDoc, Env{Vars: vars})
	if got != want || !strings.Contains(got, "TCP/IP") {
		t.Fatalf("external var:\n stream: %q\n store:  %q", got, want)
	}
}

func TestResultRunnerFraming(t *testing.T) {
	prog, _, _ := compileStream(t, `/bib/book/title`)
	var results [][]byte
	d := NewDispatcher(Env{})
	d.Subscribe(prog, func(x []byte) error {
		results = append(results, x) // deliver owns the slice: no copy
		return nil
	})
	feed(t, d, bibDoc)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 (%q)", len(results), results)
	}
	want := []string{"<title>TCP/IP Illustrated</title>", "<title>Data on the Web</title>", "<title>Advanced Unix</title>"}
	for i, res := range results {
		if string(res) != want[i] {
			t.Fatalf("framed result %d = %q after later results reused the framer, want %q", i, res, want[i])
		}
	}
}

func TestResidualWindowBufferAccounting(t *testing.T) {
	prog, _, _ := compileStream(t, `/bib/book[@year = "1994"]/title`)
	prof := mustProfile(t)
	_, stats := streamEval(t, prog, bibDoc, Env{Prof: prof})
	if stats.Windows != 3 {
		t.Fatalf("windows = %d, want 3", stats.Windows)
	}
	if stats.PeakBufferBytes == 0 {
		t.Fatalf("residual windows must report buffered bytes")
	}
	rep := prof.Report()
	if rep.Counters.StreamWindows != 3 {
		t.Fatalf("profile streamWindows = %d", rep.Counters.StreamWindows)
	}
	if rep.Counters.StreamBufferPeakBytes != stats.PeakBufferBytes {
		t.Fatalf("profile peak %d != stats peak %d",
			rep.Counters.StreamBufferPeakBytes, stats.PeakBufferBytes)
	}
	if rep.Counters.StreamResults != stats.Results {
		t.Fatalf("profile results %d != stats results %d",
			rep.Counters.StreamResults, stats.Results)
	}
}

// mustProfile builds a counters profile detached from any particular plan
// (streamexec only touches the plan-agnostic engine counters).
func mustProfile(t *testing.T) *runtime.Profile {
	t.Helper()
	q, err := xqparse.Parse(`1`)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := runtime.Compile(q, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prep.NewProfile(false)
}

func TestDispatcherIsolatesFailingMember(t *testing.T) {
	progA, _, _ := compileStream(t, `/bib/book/title`)
	progB, _, _ := compileStream(t, `/bib/book`)
	var got []string
	boom := fmt.Errorf("subscriber gone")
	d := NewDispatcher(Env{})
	ma := d.Subscribe(progA, func(x []byte) error {
		got = append(got, string(x))
		return nil
	})
	mb := d.Subscribe(progB, func([]byte) error { return boom })
	feed(t, d, bibDoc)

	if ma.Err() != nil {
		t.Fatalf("healthy member errored: %v", ma.Err())
	}
	if mb.Err() != boom {
		t.Fatalf("failing member err = %v, want %v", mb.Err(), boom)
	}
	if len(got) != 3 {
		t.Fatalf("healthy member results = %d, want 3", len(got))
	}
	if d.Live() != 1 {
		t.Fatalf("live members = %d, want 1", d.Live())
	}
}
