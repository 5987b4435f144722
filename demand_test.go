package xqgo_test

// Differentials of the demand analyses — what projection keeps, what the
// optimizer treats as context-dependent, what the streamability check lets
// into a window — against the reference plan (optimizer off, projection
// off, stored document). TestFocusBuiltinsAgree covers every built-in that
// reads the focus; FuzzDemand covers generated queries.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"xqgo"
	"xqgo/internal/functions"
	"xqgo/internal/workload"
)

const demandURI = "demand.xml"

// demandEval runs src over xml: over the stored document when stored is
// set, else over a streamed parse, in stream mode when stream is set.
func demandEval(ctx context.Context, q *xqgo.Query, xml string, stored *xqgo.Document, stream bool) (string, error) {
	c := xqgo.NewContext().
		WithNow(time.Date(2004, 3, 30, 12, 0, 0, 0, time.UTC)).
		WithMemoryBudget(64 << 20)
	if stored != nil {
		c = c.WithContextNode(stored).RegisterDocument(demandURI, stored)
	} else {
		c = c.WithStreamingInput(strings.NewReader(xml), demandURI).WithStreamMode(stream)
	}
	var out bytes.Buffer
	err := q.ExecuteContext(ctx, c, &out)
	return out.String(), err
}

// demandRun is one evaluation's result: the bytes, or the error text.
func demandRun(ctx context.Context, q *xqgo.Query, xml string, stored *xqgo.Document, stream bool) string {
	out, err := demandEval(ctx, q, xml, stored, stream)
	if err != nil {
		return "error: " + err.Error()
	}
	return out
}

// TestFocusBuiltinsAgree is the drift guard of the function registry: every
// built-in whose omitted argument is the focus, called without it on a path
// and in a FLWOR, gives the same bytes stored, over a projected streamed
// parse, in stream mode when streamable, and unoptimized. A built-in
// registered later is covered without editing the test.
func TestFocusBuiltinsAgree(t *testing.T) {
	xml := workload.DocToXML(workload.Bib(workload.BibConfig{Books: 30, Seed: 25}))
	stored, err := xqgo.ParseString(xml, demandURI)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := 0
	for f := range functions.Each() {
		if !f.Props.UsesContext || f.MinArgs != 0 {
			continue
		}
		n++
		for _, src := range []string{
			`/bib/book/title/` + f.Name + `()`,
			`for $t in /bib/book/title return $t/` + f.Name + `()`,
		} {
			def := xqgo.MustCompile(src, nil)
			ref := xqgo.MustCompile(src, &xqgo.Options{NoOptimize: true, DisableProjection: true})
			want := demandRun(ctx, ref, xml, stored, false)
			got := map[string]string{
				"stored":   demandRun(ctx, def, xml, stored, false),
				"streamed": demandRun(ctx, def, xml, nil, false),
			}
			if class, _ := def.Streamability(); class != xqgo.StreamStoreRequired {
				got["stream mode"] = demandRun(ctx, def, xml, nil, true)
			}
			for mode, out := range got {
				if out != want {
					t.Errorf("%s %s:\n got  %q\n want %q", src, mode, clip(out), clip(want))
				}
			}
		}
	}
	if n < 9 {
		t.Errorf("%d built-ins read the focus, want at least the 9 of F&O 1.0", n)
	}
}

// demandXML is FuzzDemand's document: namespaces (a prefix, a default
// namespace on a subtree), attributes, mixed content, whitespace-only text,
// a comment, a processing instruction, and names that repeat at several
// depths.
const demandXML = `<bib xmlns:x="urn:x" id="b0">
  <book year="1994" x:lang="en">
    <title>TCP/IP <i>Illustrated</i></title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the <x:em>Web</x:em></title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <price>39.95</price>
    <x:note>mixed <b>bold</b> tail<!-- c --><?pi data?></x:note>
  </book>
  <book year="1999">
    <title>The Economics of Technology</title>
    <editor><last>Gerbarg</last><affiliation>CITI</affiliation></editor>
    <price>129.95</price>
    <book year="2001"><title>Nested</title><price>1</price></book>
  </book>
  <meta xmlns="urn:m"><title>Shelf</title><a><b>1</b><b>2</b></a></meta>
  <a><b>3</b><a><b>4</b></a></a>
  <title>Catalogue</title>
</bib>`

// demandSeeds are regression queries, on FuzzDemand's document, for what
// projection keeps of a focus read, for CSE of a focus read, and for
// positional and numeric predicates on a stream-mode spine.
var demandSeeds = []string{
	`/bib/book/title/string()`,
	`count(/bib/book/title/string())`,
	`string()`,
	`count(/bib/book[string-length() gt 40])`,
	`/bib/book/title/name()`,
	`for $b in /bib/book return $b/title/string()`,
	`/bib/book[1]/title/root()/bib/book[2]/price/string(.)`,
	`/bib/book/price/number()`,
	`for $x in /bib/* return $x/(concat(string(), "-", local-name(), "-", string()), concat(string(), "-", local-name(), "-", string()))`,
	`/bib/book[position() = 2]/title`,
	`/bib/book[last()]/price`,
	`/bib/book[title/1]`,
	`(/bib/book/title/string()) instance of node()*`,
	`//b/normalize-space()`,
	`for $t in //title return $t/local-name()`,
}

// FuzzDemand: whenever the reference plan (optimizer and projection off,
// stored document) evaluates a query, the default plan gives the same
// bytes over a projected streamed parse, and in stream mode when the plan
// is streamable. Resource limits (a deadline, a memory budget) end a run
// without a verdict.
func FuzzDemand(f *testing.F) {
	seeds, err := os.Open("internal/xqparse/testdata/seed_queries.txt")
	if err != nil {
		f.Fatal(err)
	}
	sc := bufio.NewScanner(seeds)
	for sc.Scan() {
		f.Add(sc.Text())
	}
	seeds.Close()
	for _, s := range demandSeeds {
		f.Add(s)
	}
	stored, err := xqgo.ParseString(demandXML, demandURI)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized query")
		}
		ref, err := xqgo.Compile(src, &xqgo.Options{NoOptimize: true, DisableProjection: true})
		if err != nil {
			t.Skip("does not compile")
		}
		def, err := xqgo.Compile(src, nil)
		if err != nil {
			t.Fatalf("%q compiles unoptimized but not optimized: %v", src, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		want, err := demandEval(ctx, ref, demandXML, stored, false)
		if err != nil {
			t.Skip("reference plan fails")
		}
		modes := []bool{false}
		if class, _ := def.Streamability(); class != xqgo.StreamStoreRequired {
			modes = append(modes, true)
		}
		for _, stream := range modes {
			got, err := demandEval(ctx, def, demandXML, nil, stream)
			var budget *xqgo.BudgetExceededError
			if ctx.Err() != nil || errors.As(err, &budget) {
				t.Skip("resource limit")
			}
			if err != nil || got != want {
				t.Fatalf("%q (stream mode %v):\n got  %q, %v\n want %q", src, stream, clip(got), err, clip(want))
			}
		}
	})
}
