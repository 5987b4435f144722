package xqgo_test

// Chaos differential: the paper query suite runs with deterministic faults
// fired at each of the engine's named injection points, asserting that every
// failure surfaces as a structured error on the calling goroutine — never a
// process crash, a hang, or a leaked goroutine — and that sibling work keeps
// flowing.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xqgo"
	"xqgo/internal/faultinject"
	"xqgo/internal/leakcheck"
	"xqgo/internal/workload"
)

// chaosQueries is the streamed slice of the paper suite: each runs over the
// orders feed through demand-driven ingestion, so parser- and store-level
// faults fire mid-query.
var chaosQueries = []string{
	`count(/Order/OrderLine)`,
	`/Order/OrderLine[SellersID = "1"]/Item/ID`,
	paperQuery,
	`sum(for $l in /Order/OrderLine return count($l/Item))`,
}

func TestChaosDifferentialStreamedIngestion(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	doc := ordersXML(300)
	gov := xqgo.NewMemoryGovernor(0)

	faults := []struct {
		point faultinject.Point
		fault faultinject.Fault
	}{
		// Transport failure partway into the feed.
		{faultinject.ParserRead, faultinject.Fault{After: 2}},
		// Producer dies mid-token: the feed truncates to a clean EOF.
		{faultinject.FeedTruncate, faultinject.Fault{After: 2}},
		// Store-level parse abort after a token committed.
		{faultinject.StoreAbort, faultinject.Fault{After: 8}},
	}
	for _, f := range faults {
		for _, src := range chaosQueries {
			t.Run(string(f.point)+"/"+src[:min(20, len(src))], func(t *testing.T) {
				q := xqgo.MustCompile(src, nil)
				budget := gov.Governed(0)
				faultinject.Enable(f.point, f.fault)
				defer faultinject.Reset()

				ctx := xqgo.NewContext().
					WithStreamingInput(strings.NewReader(doc), "mem:feed").
					WithBudget(budget)
				_, err := q.EvalString(ctx)
				if err == nil {
					t.Fatalf("fault at %s did not surface", f.point)
				}
				// No panic escaped (we are still running) and the budget's
				// books balance: releasing returns the governor to zero.
				budget.ReleaseAll()
				if got := gov.InUse(); got != 0 {
					t.Fatalf("governor holds %d bytes after release", got)
				}

				// The same plan immediately works again — no poisoned
				// shared state.
				faultinject.Reset()
				want, werr := q.EvalString(xqgo.NewContext().
					WithStreamingInput(strings.NewReader(doc), "mem:feed"))
				if werr != nil {
					t.Fatalf("post-fault rerun: %v", werr)
				}
				if want == "" {
					t.Fatal("post-fault rerun produced no output")
				}
			})
		}
	}
}

// An injected read error must carry through to the caller identifiably, so
// operators can tell transport failures from query bugs.
func TestChaosParserReadErrorIsIdentifiable(t *testing.T) {
	defer faultinject.Reset()
	doc := ordersXML(100)
	q := xqgo.MustCompile(`count(/Order/OrderLine)`, nil)
	faultinject.Enable(faultinject.ParserRead, faultinject.Fault{After: 1})
	_, err := q.EvalString(xqgo.NewContext().
		WithStreamingInput(strings.NewReader(doc), "mem:feed"))
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) || ie.Point != faultinject.ParserRead {
		t.Fatalf("error %v, want injected %s in the chain", err, faultinject.ParserRead)
	}
}

// A panic inside a morsel worker goroutine must surface as an error on the
// pulling goroutine, and the plan must stay healthy for the next execution.
func TestChaosMorselWorkerPanic(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, Seed: 2}))
	q := xqgo.MustCompile(`count(//a)`, nil)
	want, err := q.EvalString(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.MorselPanic, faultinject.Fault{})
	ctx := xqgo.NewContext().WithContextNode(doc).
		WithWorkers(8).WithWorkerLimiter(grantAll{})
	_, err = q.EvalString(ctx)
	if hits := faultinject.Hits(faultinject.MorselPanic); hits == 0 {
		t.Fatal("no morsel worker ran — parallel round never activated")
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) || ie.Point != faultinject.MorselPanic {
		t.Fatalf("worker panic surfaced as %v, want injected %s", err, faultinject.MorselPanic)
	}

	faultinject.Reset()
	ctx2 := xqgo.NewContext().WithContextNode(doc).
		WithWorkers(8).WithWorkerLimiter(grantAll{})
	got, err := q.EvalString(ctx2)
	if err != nil || got != want {
		t.Fatalf("post-panic rerun = %q, %v; want %q, nil", got, err, want)
	}
}

// A panic inside one comma branch must cancel its siblings — each of these
// branches would run for minutes — and surface as a structured XQGO0002.
func TestChaosCommaBranchPanicCancelsSiblings(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	const slow = `sum(for $i in 1 to 50000000000 return $i mod 7 + $i mod 11 + $i mod 13)`
	q := xqgo.MustCompile(`(`+slow+`, `+slow+`, `+slow+`)`, nil)

	// The third branch to be claimed panics; two are running by then.
	faultinject.Enable(faultinject.MorselPanic, faultinject.Fault{PanicValue: "boom", After: 2})
	_, err := q.EvalString(xqgo.NewContext().WithWorkers(8).WithWorkerLimiter(grantAll{}))
	if hits := faultinject.Hits(faultinject.MorselPanic); hits != 3 {
		t.Fatalf("%d branches claimed, want 3 — the comma round never ran", hits)
	}
	if errCode(err) != "XQGO0002" {
		t.Fatalf("branch panic surfaced as %v, want XQGO0002", err)
	}
}

// A panic during a single-flight document load must release every waiter
// with the error — a stranded waiter here deadlocks all future loads of the
// URI.
func TestChaosDocLoadPanicReleasesWaiters(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte(`<r><v>7</v></r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	q := xqgo.MustCompile(`string(document("`+path+`")/r/v)`, nil)

	faultinject.Enable(faultinject.DocLoadPanic, faultinject.Fault{Count: 1})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = q.EvalString(xqgo.NewContext().AllowFilesystem())
		}(i)
	}
	wg.Wait() // a stranded waiter would hang the test here
	var failures int
	for _, err := range errs {
		if err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no query observed the injected load panic")
	}

	// Registry is not poisoned: the next load succeeds (fault exhausted).
	got, err := q.EvalString(xqgo.NewContext().AllowFilesystem())
	if err != nil || got != "7" {
		t.Fatalf("post-panic load = %q, %v; want 7, nil", got, err)
	}
}

// A panic while evaluating one subscription's window must error that
// subscription only: the feed keeps flowing and siblings deliver everything.
func TestChaosWindowPanicIsolatesSiblings(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	doc := ordersXML(120)
	qa := xqgo.MustCompile(`/Order/OrderLine[SellersID = "1"]`, nil)
	qb := xqgo.MustCompile(`/Order/OrderLine/Item/ID`, nil)

	faultinject.Enable(faultinject.WindowPanic, faultinject.Fault{Count: 1})
	sub := xqgo.NewSubscriber()
	var aN, bN int
	sa := sub.Subscribe(qa, func([]byte) error { aN++; return nil })
	sb := sub.Subscribe(qb, func([]byte) error { bN++; return nil })
	if err := sub.Run(context.Background(), strings.NewReader(doc), "mem:feed"); err != nil {
		t.Fatalf("feed must survive a window panic, got %v", err)
	}

	// Exactly one subscription took the injected panic (whichever window
	// evaluated first); the other ran to completion.
	aErr, bErr := sa.Err(), sb.Err()
	if (aErr == nil) == (bErr == nil) {
		t.Fatalf("want exactly one errored subscription, got a=%v b=%v", aErr, bErr)
	}
	failed := aErr
	if failed == nil {
		failed = bErr
	}
	var ie *faultinject.InjectedError
	if !errors.As(failed, &ie) {
		t.Fatalf("subscription error %v, want injected error", failed)
	}
	if bErr == nil && bN != 120 {
		t.Fatalf("healthy sibling delivered %d/120", bN)
	}
	if aErr == nil && aN == 0 {
		t.Fatal("healthy sibling delivered nothing")
	}
}

// A panic inside one dispatcher tap (subscription token handler) is
// contained by the dispatcher: the feed and sibling taps continue.
func TestChaosSubscriberFeedSurvivesTapError(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	doc := ordersXML(60)
	qa := xqgo.MustCompile(`/Order/OrderLine/Item/ID`, nil)
	qb := xqgo.MustCompile(`/Order/OrderLine/Item/ID`, nil)

	sub := xqgo.NewSubscriber()
	bad := sub.Subscribe(qa, func([]byte) error { panic("delivery callback exploded") })
	var n int
	good := sub.Subscribe(qb, func([]byte) error { n++; return nil })
	if err := sub.Run(context.Background(), strings.NewReader(doc), "mem:feed"); err != nil {
		t.Fatalf("feed died with a panicking delivery callback: %v", err)
	}
	if bad.Err() == nil {
		t.Fatal("panicking subscription recorded no error")
	}
	if good.Err() != nil || n != 60 {
		t.Fatalf("sibling: err=%v delivered=%d, want nil/60", good.Err(), n)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
