package xqgo_test

import (
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

func TestIndexJoinsMatchEngine(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 2000, Seed: 5}))
	idx := doc.BuildIndex()

	// The structural join must return exactly what the query engine's
	// //a//b path returns.
	engine := xqgo.MustCompile(`//a//b`, nil)
	want, err := engine.Eval(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []xqgo.JoinAlgorithm{xqgo.StackTree, xqgo.TreeMerge, xqgo.Navigation} {
		got := idx.Descendants("a", "b", alg)
		if len(got) != len(want) {
			t.Fatalf("alg %v: %d nodes, engine says %d", alg, len(got), len(want))
		}
		for i := range got {
			if !got[i].SameNode(want[i].(xqgo.Node)) {
				t.Fatalf("alg %v: node %d differs", alg, i)
			}
		}
	}

	// Child joins match //a/b.
	engine2 := xqgo.MustCompile(`//a/b`, nil)
	want2, err := engine2.Eval(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	got2 := idx.Children("a", "b", xqgo.StackTree)
	if len(got2) != len(want2) {
		t.Fatalf("children join: %d vs engine %d", len(got2), len(want2))
	}
}

func TestIndexTwigCounts(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 2000, Seed: 5}))
	idx := doc.BuildIndex()
	stats, err := idx.CountTwig("a//b")
	if err != nil {
		t.Fatal(err)
	}
	nav, err := idx.CountTwigNavigation("a//b")
	if err != nil {
		t.Fatal(err)
	}
	if stats.PathSolutions != nav {
		t.Errorf("holistic %d != navigation %d", stats.PathSolutions, nav)
	}
	// Every pattern, branching ones included: the merged embedding count is
	// the navigation ground truth.
	for _, pat := range []string{"a//b", "a//b//c", "a[b]//c", "a[b//c]//d", "a[b]/c", "a[a]//a", "root[a]//b"} {
		stats, err := idx.CountTwig(pat)
		if err != nil {
			t.Fatal(err)
		}
		nav, err := idx.CountTwigNavigation(pat)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Matches != nav {
			t.Errorf("%s: matches %d != navigation %d", pat, stats.Matches, nav)
		}
	}
	if _, err := idx.CountTwig("["); err == nil {
		t.Error("bad pattern must fail")
	}
}
