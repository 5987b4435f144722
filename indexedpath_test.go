package xqgo_test

import (
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

// TestIndexedPathEquivalence: join-shaped paths evaluated with structural
// joins must return exactly the navigation engine's results.
func TestIndexedPathEquivalence(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 9}))
	queries := []string{
		`//a//b`,
		`//a//b//c`,
		`//a/b`,
		`/root//a`,
		`/root//a/b//c`,
		`count(//a//b)`,
		`for $n in //a//b return local-name($n)`,
		// Not join-shaped (predicates, wildcards): must silently fall back.
		`//a[b]//c`,
		`//*`,
		`//a//b[1]`,
	}
	for _, q := range queries {
		nav := xqgo.MustCompile(q, &xqgo.Options{Strategy: xqgo.ForceNavigation})
		idx := xqgo.MustCompile(q, &xqgo.Options{Strategy: xqgo.ForceBinaryJoin})
		want, err := nav.EvalString(xqgo.NewContext().WithContextNode(doc))
		if err != nil {
			t.Fatalf("%s (nav): %v", q, err)
		}
		got, err := idx.EvalString(xqgo.NewContext().WithContextNode(doc))
		if err != nil {
			t.Fatalf("%s (indexed): %v", q, err)
		}
		if got != want {
			t.Errorf("%s: indexed %.120q != nav %.120q", q, got, want)
		}
	}
}
