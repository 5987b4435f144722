package xqgo_test

// Morsel-driven intra-query parallelism: workers off and on (8, with a
// limiter that grants them all) under every engine variant, on the paper
// suite and on a document large enough that the morsel loops split into
// parallel rounds. CI runs these at GOMAXPROCS=8 under -race: workers share
// indexes, the call memo and the resolver across goroutines.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

func TestMorselDifferentialPaperSuite(t *testing.T) { eachBase(t, paperRows, axWorkers) }

func TestMorselDifferentialDeepDoc(t *testing.T) { eachBase(t, deepRows, axWorkers) }

// Concurrent executions of one shared plan, each with morsel workers: the
// per-execution state (buffer pools, profile shards, step counters) must
// stay isolated while the shared caches (indexes, memo) stay consistent.
func TestMorselConcurrentExecutions(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 30000, Seed: 7}))
	opts := xqgo.Options{Strategy: xqgo.ForceTwig}
	compiled, err := xqgo.Compile(`count(//a//b)`, &opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compiled.EvalString(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			ctx := xqgo.NewContext().WithContextNode(doc).WithWorkers(4).WithWorkerLimiter(grantAll{})
			got, err := compiled.EvalString(ctx)
			if err == nil && got != want {
				err = fmt.Errorf("concurrent run: got %q, want %q", got, want)
			}
			errs <- err
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// countingLimiter grants every request and records the traffic.
type countingLimiter struct{ leased, released atomic.Int64 }

func (l *countingLimiter) TryLease(n int) int { l.leased.Add(int64(n)); return n }
func (l *countingLimiter) Release(n int)      { l.released.Add(int64(n)) }

// The E13 sequence runs as one comma round: seven extras leased for eight
// branches, all returned, same counts as the sequential run.
func TestMorselCommaBranchesLease(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 20000, Seed: 2}))
	q := xqgo.MustCompile(e13Query, nil)
	want, err := q.EvalString(xqgo.NewContext().Bind("d", doc))
	if err != nil {
		t.Fatal(err)
	}
	lim := &countingLimiter{}
	got, err := q.EvalString(xqgo.NewContext().Bind("d", doc).WithWorkers(8).WithWorkerLimiter(lim))
	if err != nil || got != want {
		t.Fatalf("workers: %q, %v; want %q", got, err, want)
	}
	if lim.leased.Load() != 7 || lim.released.Load() != 7 {
		t.Errorf("leased %d, released %d; want one round of 7 extras", lim.leased.Load(), lim.released.Load())
	}
}

// A one-item consumer over a comma sequence evaluates only the branches it
// needs, with workers on exactly as with workers off: the second branch
// raises, and must never run.
func TestMorselCommaBranchesStayLazy(t *testing.T) {
	const a = `count((1 to 50)[. mod 3 = 0]) + count((1 to 50)[. mod 5 = 0]) + count((1 to 50)[. mod 7 = 0])`
	const b = `sum(for $i in 1 to 50 return if ($i = 49) then error() else $i) + count((1 to 50)[. mod 2 = 0])`
	for _, c := range []struct{ q, want string }{
		{`exists((` + a + `, ` + b + `))`, "true"},
		{`(` + a + `, ` + b + `)[1]`, "33"},
		{`some $x in (` + a + `, ` + b + `) satisfies $x > 0`, "true"},
	} {
		q := xqgo.MustCompile(c.q, nil)
		for _, workers := range []int{0, 8} {
			got, err := q.EvalString(xqgo.NewContext().WithWorkers(workers).WithWorkerLimiter(grantAll{}))
			if err != nil || got != c.want {
				t.Errorf("%s workers=%d: %q, %v; want %q", c.q, workers, got, err, c.want)
			}
		}
	}
	// A draining consumer reaches the failing branch either way.
	q := xqgo.MustCompile(`count((`+a+`, `+b+`))`, nil)
	for _, workers := range []int{0, 8} {
		_, err := q.EvalString(xqgo.NewContext().WithWorkers(workers).WithWorkerLimiter(grantAll{}))
		if codeOf(err) != "FOER0000" {
			t.Errorf("count workers=%d: err %v, want FOER0000", workers, err)
		}
	}
}
