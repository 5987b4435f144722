package xqgo_test

// Differential test for morsel-driven intra-query parallelism: every query
// of the batch differential suite — and a set of large-document queries
// that actually cross the morsel activation thresholds — is evaluated with
// worker parallelism off and on (Workers=8), under every engine variant,
// asserting identical results and identical error codes. Run in CI at
// GOMAXPROCS=8 under -race: workers share indexes, the call memo, and the
// resolver across goroutines.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

// grantAll always grants the full worker request, so the differential runs
// real parallel rounds regardless of the host's CPU count (the default
// process pool grants nothing on a single-CPU machine).
type grantAll struct{}

func (grantAll) TryLease(n int) int { return n }
func (grantAll) Release(int)        {}

func TestMorselDifferentialPaperSuite(t *testing.T) {
	for _, os := range batchDiffOptSets {
		t.Run(os.name, func(t *testing.T) {
			for _, q := range batchDiffQueries {
				compiled, err := xqgo.Compile(q, &os.opts)
				if err != nil {
					t.Fatalf("compile %q: %v", q, err)
				}
				ctxSeq, _ := paperCtx(t)
				ctxPar, _ := paperCtx(t)
				ctxPar.WithWorkers(8).WithWorkerLimiter(grantAll{})
				outSeq, errSeq := compiled.EvalString(ctxSeq)
				outPar, errPar := compiled.EvalString(ctxPar)
				if errCode(errSeq) != errCode(errPar) {
					t.Errorf("%q: error mismatch: sequential %v vs workers %v", q, errSeq, errPar)
					continue
				}
				if errSeq == nil && outSeq != outPar {
					t.Errorf("%q: result mismatch:\n  sequential: %q\n  workers:    %q", q, outSeq, outPar)
				}
			}
		})
	}
}

// morselDeepQueries run over a document large enough that the path-scan,
// structural-join, and FLWOR morsel loops genuinely split into parallel
// rounds (the paper suite's bib document is far below the thresholds). The
// document is also bound to $d: comma branches must not read the focus.
var morselDeepQueries = []string{
	// Descendant range scans over the pre-order array.
	`count(//a)`,
	`count(//b) + count(//c)`,
	`string-join((//a)[position() <= 20]/local-name(), "")`,
	// Structural-join chains (postings feeds at scale).
	`count(//a//b)`,
	`count(//a//b//c)`,
	`(//a//b)[500]/local-name()`,
	// FLWOR tuple pipelines.
	`sum(for $i in 1 to 20000 return $i mod 7)`,
	`string-join(for $b in //b return local-name($b), "")`,
	`count(for $a in //a where count($a/*) > 2 return $a)`,
	// Error position must not depend on worker count.
	`count(for $i in 1 to 20000 return 1 idiv (20000 - $i))`,
	`sum(for $i in 1 to 20000 return if ($i = 19999) then "boom" else 1)`,
	// Comma branches, one morsel each: the E13 eight-branch sequence,
	// branches sharing a let binding, a failing branch in the middle.
	e13Query,
	`declare variable $d external;
	 let $a := $d//a return
	   (count($a//b) + count($a/c) + count($a/d) + count($a/a),
	    string-join(for $x in $a[position() <= 40] return local-name($x/*[1]), ""),
	    sum(for $x in $a[position() <= 400] return count($x/*)) + count($a/b))`,
	`declare variable $d external;
	 (count($d//a//b//c), sum(for $i in 1 to 20000 return 1 idiv (20000 - $i)), count($d//b//c//d))`,
}

// e13Query is experiment E13's comma sequence (cmd/xqbench): eight
// independent three-step chains over one external document.
const e13Query = `declare variable $d external;
	(count($d//a//b//c), count($d//b//c//d), count($d//c//d//a), count($d//d//a//b),
	 count($d//a//c//b), count($d//b//d//a), count($d//c//a//d), count($d//d//b//c))`

func TestMorselDifferentialDeepDoc(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 2}))
	for _, os := range batchDiffOptSets {
		t.Run(os.name, func(t *testing.T) {
			for _, q := range morselDeepQueries {
				compiled, err := xqgo.Compile(q, &os.opts)
				if err != nil {
					t.Fatalf("compile %q: %v", q, err)
				}
				base := ""
				var baseErr error
				for i, workers := range []int{0, 2, 8} {
					ctx := xqgo.NewContext().WithContextNode(doc).Bind("d", doc)
					if workers > 0 {
						ctx.WithWorkers(workers).WithWorkerLimiter(grantAll{})
					}
					out, err := compiled.EvalString(ctx)
					if i == 0 {
						base, baseErr = out, err
						continue
					}
					if errCode(err) != errCode(baseErr) {
						t.Errorf("%q: workers=%d error mismatch: %v vs sequential %v",
							q, workers, err, baseErr)
						continue
					}
					if baseErr == nil && out != base {
						t.Errorf("%q: workers=%d result mismatch:\n  sequential: %q\n  workers:    %q",
							q, workers, base, out)
					}
				}
			}
		})
	}
}

// Concurrent executions of one shared plan, each with morsel workers: the
// per-execution state (buffer pools, profile shards, step counters) must
// stay isolated while the shared caches (indexes, memo) stay consistent.
func TestMorselConcurrentExecutions(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 30000, Seed: 7}))
	opts := xqgo.Options{Strategy: xqgo.ForceBinaryJoin}
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
		if errCode(err) != "FOER0000" {
			t.Errorf("count workers=%d: err %v, want FOER0000", workers, err)
		}
	}
}
