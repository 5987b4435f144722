package xqgo_test

// Differential testing: randomly generated path/FLWOR queries are run over
// randomly generated documents with (a) the streaming engine, (b) the eager
// baseline, (c) the optimizer disabled. All three evaluations must agree —
// the equivalences the paper's rewriting rules depend on.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqgo"
	"xqgo/internal/runtime"
	"xqgo/internal/workload"
)

// eagerOracle compiles src, unoptimized, for the eager reference engine:
// every sub-expression fully materialized before its consumer runs.
func eagerOracle(tb testing.TB, src string) *xqgo.Query {
	tb.Helper()
	q, err := xqgo.CompileReference(src, runtime.Options{Eager: true})
	if err != nil {
		tb.Fatalf("compile (eager) %q: %v", src, err)
	}
	return q
}

// genQuery produces a random query over the deep dataset's element names.
func genQuery(rng *rand.Rand) string {
	names := []string{"a", "b", "c", "d", "root"}
	name := func() string { return names[rng.Intn(len(names))] }
	sep := func() string {
		if rng.Intn(2) == 0 {
			return "/"
		}
		return "//"
	}
	genPath := func() string {
		var b strings.Builder
		b.WriteString(sep())
		b.WriteString(name())
		for steps := rng.Intn(3); steps > 0; steps-- {
			b.WriteString(sep())
			b.WriteString(name())
		}
		if rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "[%d]", 1+rng.Intn(3))
			case 1:
				fmt.Fprintf(&b, "[%s]", name())
			case 2:
				b.WriteString("[position() le 2]")
			}
		}
		return b.String()
	}
	switch rng.Intn(10) {
	case 0:
		return "count(" + genPath() + ")"
	case 1:
		return genPath()
	case 2:
		return fmt.Sprintf("for $x in %s return string($x)", genPath())
	case 3:
		return fmt.Sprintf("for $x in %s where exists($x/%s) return count($x/*)",
			genPath(), name())
	case 4:
		return fmt.Sprintf("some $x in %s satisfies exists($x/%s)", genPath(), name())
	case 5:
		return fmt.Sprintf("<out>{for $x in %s return <hit n=\"{local-name($x)}\"/>}</out>", genPath())
	case 6:
		return fmt.Sprintf("for $x in %s let $n := count($x/%s) where $n ge 1 order by $n descending, local-name($x) return $n",
			genPath(), name())
	case 7:
		return fmt.Sprintf("for $x in %s group by $k := local-name($x) order by $k return concat($k, \":\", count($x))",
			genPath())
	case 8:
		return fmt.Sprintf("try { sum(for $x in %s return string-length(string($x))) } catch * { -1 }",
			genPath())
	case 9:
		return fmt.Sprintf("string-join(for $x at $i in %s return concat($i, local-name($x)), \".\")",
			genPath())
	}
	return "1"
}

func TestDifferentialRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(20040914))
	docs := []*xqgo.Document{
		xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 400, Seed: 1})),
		xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 400, Seed: 2, MaxDepth: 5, Fanout: 8})),
	}
	modes := []struct {
		name    string
		compile func(src string) (*xqgo.Query, error)
	}{
		{"streaming", func(src string) (*xqgo.Query, error) { return xqgo.Compile(src, nil) }},
		{"eager", func(src string) (*xqgo.Query, error) {
			return xqgo.CompileReference(src, runtime.Options{Eager: true})
		}},
		{"unoptimized", func(src string) (*xqgo.Query, error) {
			return xqgo.Compile(src, &xqgo.Options{NoOptimize: true})
		}},
	}
	const trials = 120
	for i := 0; i < trials; i++ {
		src := genQuery(rng)
		doc := docs[i%len(docs)]
		var base string
		for m, mode := range modes {
			q, err := mode.compile(src)
			if err != nil {
				t.Fatalf("trial %d: compile %q (%s): %v", i, src, mode.name, err)
			}
			got, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
			if err != nil {
				t.Fatalf("trial %d: eval %q (%s): %v", i, src, mode.name, err)
			}
			if m == 0 {
				base = got
				continue
			}
			if got != base {
				t.Errorf("trial %d: %q\n %s: %.200q\n %s: %.200q",
					i, src, modes[0].name, base, mode.name, got)
			}
		}
	}
}

// TestDifferentialExecutePath checks the streamed Execute output equals the
// materialized serialization for random construction-heavy queries.
func TestDifferentialExecutePath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 300, Seed: 3}))
	for i := 0; i < 40; i++ {
		src := fmt.Sprintf("<w>{for $x in //%s return <i v=\"{count($x/*)}\">{local-name($x)}</i>}</w>",
			[]string{"a", "b", "c"}[rng.Intn(3)])
		q, err := xqgo.Compile(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := q.Execute(xqgo.NewContext().WithContextNode(doc), &sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("trial %d (%s): execute %.200q != eval %.200q", i, src, sb.String(), want)
		}
	}
}
