package runtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xqgo/internal/expr"
	"xqgo/internal/optimizer"
	"xqgo/internal/serializer"
	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
	"xqgo/internal/xtypes"
)

// compileOptimized compiles src as the service does: optimized.
func compileOptimized(t *testing.T, src string) *Prepared {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(optimizer.Optimize(q, optimizer.Options{}), Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return p
}

// evalOn evaluates p with doc's root as the context item and serializes
// the result.
func evalOn(p *Prepared, doc *store.Document, prof *Profile) (string, error) {
	seq, err := p.Eval(&Dynamic{ContextItem: doc.RootNode(), Prof: prof})
	if err != nil {
		return "", err
	}
	return serializer.SequenceToString(seq)
}

// TestNamePoolResolution covers the name tests a step resolves against a
// document's name pool and then answers by pool index: names interned after
// the resolution, one plan over several pools at once, and a name the pool
// lacks.
func TestNamePoolResolution(t *testing.T) {
	t.Run("interned after the scan resolved", func(t *testing.T) {
		var b strings.Builder
		b.WriteString(`<r xmlns:p="urn:p">`)
		for i := 0; i < 200; i++ {
			b.WriteString("<a/>")
		}
		b.WriteString(`<late/><p:late/><a><late>x</late></a></r>`)
		src := b.String()

		// A scan on a document still being parsed resolves against the
		// pool as far as it has grown; "late" comes after that.
		for _, c := range []struct {
			test xtypes.NodeTest
			want int
		}{
			{xtypes.NodeTest{Name: xdm.LocalName("late")}, 2},
			{xtypes.NodeTest{WildSpace: true, Name: xdm.LocalName("late")}, 3},
			{xtypes.NodeTest{WildLocal: true, Name: xdm.QName{Space: "urn:p", Prefix: "p"}}, 1},
		} {
			test := c.test
			doc := xmlparse.ParseIncremental(strings.NewReader(src), xmlparse.Options{}).Document()
			var s storeScan
			s.reset(nil, doc, 0, newStepTest(&expr.Step{Axis: expr.AxisDescendant, Test: test}))
			if s.v != nil || !s.r.none {
				t.Fatalf("%s: the scan resolved after the name was interned", test.String())
			}
			n := 0
			for id := s.next(); id >= 0; id = s.next() {
				if !test.Matches(doc.Kind(id), doc.ExpandedName(id), xdm.ElementNode) {
					t.Errorf("%s passed %v", test.String(), doc.ExpandedName(id))
				}
				n++
			}
			if n != c.want {
				t.Errorf("%s: %d nodes, want %d", test.String(), n, c.want)
			}
		}

		// Streamed and stored, the queries agree.
		stored, err := xmlparse.ParseString(src, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			`count(//late)`,
			`/r/*:late`,
			`declare namespace p = "urn:p"; (/r/p:*, count(/r/p:late), /r/a/late/string())`,
			`(count(/r/a), //*:late)`,
		} {
			p := compileOptimized(t, q)
			want, err := evalOn(p, stored, nil)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			streamed := xmlparse.ParseIncremental(strings.NewReader(src), xmlparse.Options{}).Document()
			if got, err := evalOn(p, streamed, nil); err != nil || got != want {
				t.Errorf("%s streamed = %q, %v; stored %q", q, got, err, want)
			}
		}
	})

	t.Run("one plan over three pools at once", func(t *testing.T) {
		// Three documents name the same elements in other orders, so each
		// pool numbers them differently, and bind other prefixes to urn:p.
		srcs := []string{
			`<r xmlns:a="urn:p"><a:x n="1"/><y/><a:y/><x/><a:x n="2"/></r>`,
			`<r xmlns:b="urn:p"><y/><y/><b:y/><b:x n="3"/><x/></r>`,
			`<r xmlns="urn:p"><z/><y/><x n="4"/><x n="5"/><x n="6"/></r>`,
		}
		p := compileOptimized(t, `declare namespace q = "urn:p";
			(count(/*/q:x), string-join(/*/q:x/@n, ","), count(/*/*:y), count(//q:*), count(/*/x))`)
		docs := make([]*store.Document, len(srcs))
		wants := make([]string, len(srcs))
		for i, src := range srcs {
			d, err := xmlparse.ParseString(src, xmlparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = d
			if wants[i], err = evalOn(p, d, nil); err != nil {
				t.Fatal(err)
			}
		}
		if want := "2 1,2 2 3 1"; wants[0] != want {
			t.Fatalf("first document = %q, want %q", wants[0], want)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8*len(docs))
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := (g + i) % len(docs)
					if got, err := evalOn(p, docs[k], nil); err != nil || got != wants[k] {
						errs <- fmt.Errorf("document %d = %q, %v; want %q", k, got, err, wants[k])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})

	t.Run("executions taking turns over pools resolve once per pool", func(t *testing.T) {
		a := workload.Orders(workload.OrdersConfig{Lines: 200, Sellers: 10, Seed: 1})
		b := workload.Orders(workload.OrdersConfig{Lines: 200, Sellers: 10, Seed: 2})
		p := compileOptimized(t, `/Order/OrderLine[SellersID = "2"]/Item/ID`)
		run := func(docs ...*store.Document) float64 {
			return testing.AllocsPerRun(10, func() {
				for _, d := range docs {
					if _, err := evalOn(p, d, nil); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		if apart, turns := run(a)+run(b), run(a, b); turns > apart {
			t.Errorf("taking turns over two pools allocates %.0f times, each pool alone %.0f", turns, apart)
		}
	})

	t.Run("a name the pool lacks", func(t *testing.T) {
		doc, err := xmlparse.ParseString(testBib, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var s storeScan
		s.reset(nil, doc, 0, newStepTest(&expr.Step{Axis: expr.AxisDescendant, Test: xtypes.NodeTest{Name: xdm.LocalName("nothing")}}))
		if s.cur <= s.end {
			t.Errorf("the scan of a name the pool lacks visits ids %d..%d", s.cur, s.end)
		}
		p := compileOptimized(t, `//nothing`)
		prof := p.NewProfile(false)
		if got, err := evalOn(p, doc, prof); err != nil || got != "" {
			t.Fatalf("//nothing = %q, %v", got, err)
		}
		rows := 0
		for _, op := range prof.Report().Operators {
			if op.Kind == "path" || op.Kind == "step" {
				rows++
				if op.Items != 0 {
					t.Errorf("%s row counts %d items", op.Kind, op.Items)
				}
			}
		}
		if rows == 0 {
			t.Error("no path row in the profile")
		}
	})
}
