package xqgo_test

// Differential test for the join strategies: every query of the paper suite
// plus join-shaped chains over deep documents is evaluated under
// both forced strategies (navigation, holistic twig join) and under
// cost-based Auto, asserting identical results and identical error identity.
// The deep-doc queries also run with 8 morsel workers; CI runs this under
// -race at GOMAXPROCS=8, so the per-chunk path-stack runs and the shared
// plan-choice cache get real scheduler pressure.

import (
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

var strategyOptSets = []struct {
	name string
	opts xqgo.Options
}{
	{"navigation", xqgo.Options{Strategy: xqgo.ForceNavigation}},
	{"twig-join", xqgo.Options{Strategy: xqgo.ForceTwig}},
	{"auto", xqgo.Options{Strategy: xqgo.StrategyAuto}},
}

// TestStrategyDifferential: the paper suite (including its error-path
// queries) must be strategy-invariant. Navigation is the reference.
func TestStrategyDifferential(t *testing.T) {
	for _, q := range batchDiffQueries {
		var wantOut string
		var wantErr string
		for i, os := range strategyOptSets {
			compiled, err := xqgo.Compile(q, &os.opts)
			if err != nil {
				t.Fatalf("compile (%s) %q: %v", os.name, q, err)
			}
			ctx, _ := paperCtx(t)
			out, evalErr := compiled.EvalString(ctx)
			if i == 0 {
				wantOut, wantErr = out, errCode(evalErr)
				continue
			}
			if got := errCode(evalErr); got != wantErr {
				t.Errorf("%q: %s error %q != navigation error %q", q, os.name, got, wantErr)
				continue
			}
			if evalErr == nil && out != wantOut {
				t.Errorf("%q: %s result mismatch:\n  navigation: %.120q\n  %s: %.120q",
					q, os.name, wantOut, os.name, out)
			}
		}
	}
}

// TestStrategyDifferentialDeep: join-shaped chains over a document deep
// enough that the strategies take genuinely different code paths,
// sequentially and with 8 morsel workers per execution.
func TestStrategyDifferentialDeep(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 10}))
	strategyDiffOnDoc(t, doc, []string{
		`count(//a//b)`,
		`count(//a//b//c)`,
		`count(//a//b/c)`,
		`count(/root//a//b)`,
		`count(//a//a)`, // self-chain: strict containment must hold everywhere
		`string-join(for $n in //a//b//c return local-name($n), "")`,
		`(//a//b)[17]/local-name(.)`,
		`count(//a//b[1 idiv 0])`, // error identity through every join path
	})
}

// TestIndexedPathEquivalence: join-shaped paths evaluated with the index
// join must return exactly the navigation engine's results, and paths that
// are not join-shaped (predicates, wildcards) must fall back to navigation
// silently. Same legs as TestStrategyDifferentialDeep, over a smaller deep
// document because these queries serialize whole node sequences.
func TestIndexedPathEquivalence(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 9}))
	strategyDiffOnDoc(t, doc, []string{
		`//a//b`,
		`//a//b//c`,
		`//a/b`,
		`/root//a`,
		`/root//a/b//c`,
		`count(//a//b)`,
		`for $n in //a//b return local-name($n)`,
		// Not join-shaped: must fall back.
		`//a[b]//c`,
		`//*`,
		`//a//b[1]`,
	})
}

// strategyDiffOnDoc evaluates each query under every strategy, sequentially
// and with 8 morsel workers, against sequential navigation as the reference.
func strategyDiffOnDoc(t *testing.T, doc *xqgo.Document, queries []string) {
	t.Helper()
	for _, q := range queries {
		var wantOut string
		var wantErr string
		for i, os := range strategyOptSets {
			compiled, err := xqgo.Compile(q, &os.opts)
			if err != nil {
				t.Fatalf("compile (%s) %q: %v", os.name, q, err)
			}
			for _, workers := range []int{0, 8} {
				ctx := xqgo.NewContext().WithContextNode(doc)
				if workers > 0 {
					ctx.WithWorkers(workers)
				}
				out, evalErr := compiled.EvalString(ctx)
				if i == 0 && workers == 0 {
					wantOut, wantErr = out, errCode(evalErr)
					continue
				}
				if got := errCode(evalErr); got != wantErr {
					t.Errorf("%q (%s, workers=%d): error %q != reference %q",
						q, os.name, workers, got, wantErr)
					continue
				}
				if evalErr == nil && out != wantOut {
					t.Errorf("%q (%s, workers=%d): result mismatch:\n  reference: %.120q\n  got:       %.120q",
						q, os.name, workers, wantOut, out)
				}
			}
		}
	}
}
