package xqgo_test

import (
	"slices"
	"testing"

	"xqgo"
	"xqgo/internal/runtime"
)

// TestDifferentialExecutePath: the corpus rows on small documents through
// the whole plan — each optimizer rule off in turn, every input, a memory
// budget, every way to pull results and xqd over HTTP.
func TestDifferentialExecutePath(t *testing.T) {
	oracle(t, slices.Concat(paperRows, demandRows, projectionRows, foundRows), xqgo.Options{},
		axOptimizer|axInput|axBudget|axPull|axHTTP)
}

// TestChainDifferential: the step-chain rows through every leg, under the
// default plan, forced navigation and the forced twig join.
func TestChainDifferential(t *testing.T) { eachBase(t, chainRows, axAll) }

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
