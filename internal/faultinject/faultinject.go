// Package faultinject is a deterministic, build-tag-free chaos harness.
// Production code calls Fire/FirePanic at named injection points; the
// calls cost one atomic load while nothing is armed, and tests arm
// specific points (Enable) with an error, a panic value, or a stall to
// prove the engine degrades gracefully — structured error out, no
// goroutine leaks, budgets released, sibling subscriptions unharmed.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site in the engine.
type Point string

// The wired injection points. Each constant appears at exactly one call
// site; the chaos differential (chaos_test.go at the repo root) iterates
// this set against the paper query suite.
const (
	// ParserRead fails the streamed-input reader with an I/O error.
	ParserRead Point = "parser.read-error"
	// FeedTruncate ends the streamed input mid-token (premature EOF).
	FeedTruncate Point = "parser.feed-truncate"
	// StoreAbort fails the incremental parse after a successful token,
	// modeling a store-side append failure.
	StoreAbort Point = "store.parse-abort"
	// MorselPanic panics inside a morsel worker's chunk closure.
	MorselPanic Point = "morsel.worker-panic"
	// DocLoadPanic panics inside the single-flight fn:doc loader.
	DocLoadPanic Point = "docload.panic"
	// WindowPanic panics inside a streamexec window evaluation.
	WindowPanic Point = "stream.window-panic"
	// SSEWrite fails a subscriber SSE event write.
	SSEWrite Point = "sse.write-error"
	// SSESlow stalls a subscriber SSE event write (slow consumer).
	SSESlow Point = "sse.slow-consumer"
)

// Points lists every wired injection point, for matrix-style tests.
func Points() []Point {
	return []Point{ParserRead, FeedTruncate, StoreAbort, MorselPanic,
		DocLoadPanic, WindowPanic, SSEWrite, SSESlow}
}

// Fault describes what an armed point does when hit.
type Fault struct {
	// Err is returned by Fire. Nil with a Delay makes a pure stall;
	// nil otherwise substitutes a generic *InjectedError.
	Err error
	// PanicValue makes FirePanic panic with this value. Nil substitutes
	// a generic *InjectedError (so recover boundaries see an error).
	PanicValue any
	// After skips the first After hits before triggering.
	After int64
	// Count fires at most Count times once triggering (0 = every hit).
	Count int64
	// Delay stalls the hit before returning or panicking.
	Delay time.Duration
}

// InjectedError is the default fault payload.
type InjectedError struct{ Point Point }

func (e *InjectedError) Error() string {
	return "faultinject: injected fault at " + string(e.Point)
}

type entry struct {
	f    Fault
	hits atomic.Int64
}

var (
	armed atomic.Int32 // number of enabled points: the fast-path gate
	mu    sync.Mutex
	table map[Point]*entry
)

// Enable arms a point. Re-enabling replaces the fault and resets its hit
// count.
func Enable(p Point, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if table == nil {
		table = make(map[Point]*entry)
	}
	if _, ok := table[p]; !ok {
		armed.Add(1)
	}
	table[p] = &entry{f: f}
}

// Disable disarms a point.
func Disable(p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := table[p]; ok {
		delete(table, p)
		armed.Add(-1)
	}
}

// Reset disarms everything.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(table)))
	table = nil
}

// Hits returns how many times an armed point was reached (0 if disarmed).
func Hits(p Point) int64 {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := table[p]; ok {
		return e.hits.Load()
	}
	return 0
}

// lookup returns the point's fault if this hit should trigger.
func lookup(p Point) (Fault, bool) {
	mu.Lock()
	e, ok := table[p]
	mu.Unlock()
	if !ok {
		return Fault{}, false
	}
	h := e.hits.Add(1)
	if h <= e.f.After {
		return Fault{}, false
	}
	if e.f.Count > 0 && h > e.f.After+e.f.Count {
		return Fault{}, false
	}
	return e.f, true
}

// Fire triggers an error-style fault at p: nil when the point is
// disarmed (the common case — one atomic load), the fault's Err when it
// triggers (a generic *InjectedError if unset, nil for delay-only
// faults after the stall).
func Fire(p Point) error {
	if armed.Load() == 0 {
		return nil
	}
	return fire(p)
}

// fire is Fire's armed path, kept apart so that the disarmed check inlines
// into the parser's per-token call.
func fire(p Point) error {
	f, ok := lookup(p)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Err != nil {
		return f.Err
	}
	if f.Delay > 0 {
		return nil
	}
	return &InjectedError{Point: p}
}

// FirePanic triggers a panic-style fault at p: a no-op when disarmed,
// otherwise it panics with the fault's PanicValue (a generic
// *InjectedError if unset).
func FirePanic(p Point) {
	if armed.Load() == 0 {
		return
	}
	f, ok := lookup(p)
	if !ok {
		return
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.PanicValue != nil {
		panic(f.PanicValue)
	}
	panic(&InjectedError{Point: p})
}
