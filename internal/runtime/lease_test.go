package runtime

import (
	"io"
	"testing"

	"xqgo/internal/expr"
	"xqgo/internal/workload"
	"xqgo/internal/xqparse"
)

// TestDrainMarkLeasesWorkers pins where the three morsel sources may run a
// parallel round: a descendant scan over more than two morsels of ids, a
// morsel-eligible FLWOR and an eligible comma sequence lease a worker under
// every consumer that reads them to the end (Eval, fn:count, Execute), and
// none under a consumer that reads one item (fn:exists, a first-item
// predicate, an Iterator's first Next). Each source is also read through a
// path, a let, a concatenation and a profile, so the mark crosses every
// operator that passes it on.
func TestDrainMarkLeasesWorkers(t *testing.T) {
	doc := workload.Deep(workload.DeepConfig{Nodes: 3 * descMorselIDs, Seed: 1})
	sources := []struct{ name, src string }{
		{"scan", `//b`},
		{"flwor", `for $i in 1 to 2000 return $i * 2`},
		{"comma", `((1 to 60)[. mod 2 = 0][. > 0][. < 100][. != 50], (61 to 120)[. mod 2 = 0][. > 0][. < 1000][. != 50])`},
	}
	wrappers := []struct {
		name string
		wrap func(string) string
	}{
		{"bare", func(s string) string { return s }},
		{"path", func(s string) string { return "/(" + s + ")" }},
		{"let", func(s string) string { return "let $v := " + s + " return $v" }},
		{"concat", func(s string) string { return "(" + s + ", 0)" }},
	}
	consumers := []struct {
		name  string
		drain bool
		query func(string) string
		run   func(p *Prepared, d *Dynamic) error
	}{
		{"Eval", true, nil, func(p *Prepared, d *Dynamic) error { _, err := p.Eval(d); return err }},
		{"count", true, func(e string) string { return "count(" + e + ")" }, nil},
		{"Execute", true, nil, func(p *Prepared, d *Dynamic) error { return p.ExecuteToWriter(d, io.Discard) }},
		{"exists", false, func(e string) string { return "exists(" + e + ")" }, nil},
		{"first", false, func(e string) string { return "(" + e + ")[1]" }, nil},
		{"Iterator", false, nil, func(p *Prepared, d *Dynamic) error {
			it, err := p.Iterator(d)
			if err == nil {
				_, _, err = it.Next()
			}
			return err
		}},
	}
	for _, s := range sources {
		for _, w := range wrappers {
			for _, c := range consumers {
				q := w.wrap(s.src)
				if c.query != nil {
					q = c.query(q)
				}
				p := compileOrdered(t, q)
				for _, profiled := range []bool{false, true} {
					lim := &recordLimiter{granted: 8}
					d := &Dynamic{ContextItem: doc.RootNode(), Workers: 8, Limiter: lim}
					if profiled {
						d.Prof = p.NewProfile(false)
					}
					run := c.run
					if run == nil {
						run = func(p *Prepared, d *Dynamic) error { _, err := p.Eval(d); return err }
					}
					if err := run(p, d); err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					asked, granted := lim.leases.Load(), lim.grants.Load()
					switch {
					case c.drain && granted == 0:
						t.Errorf("%s/%s/%s profiled=%v: %s leased no worker", s.name, w.name, c.name, profiled, q)
					case !c.drain && asked != 0:
						t.Errorf("%s/%s/%s profiled=%v: %s asked for %d workers, want none", s.name, w.name, c.name, profiled, q, asked)
					}
					if lim.releases.Load() != granted {
						t.Errorf("%s: granted %d, released %d", q, granted, lim.releases.Load())
					}
				}
			}
		}
	}
}

// compileOrdered compiles src with every path marked free of reordering,
// as the optimizer marks a path it proves to be in document order. Such a
// path streams its right side instead of sorting it, so only its consumer
// decides whether it is read to the end.
func compileOrdered(t *testing.T, src string) *Prepared {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	expr.Walk(q.Body, func(e expr.Expr) bool {
		if p, ok := e.(*expr.Path); ok {
			p.NoReorder = true
		}
		return true
	})
	p, err := Compile(q, Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return p
}
