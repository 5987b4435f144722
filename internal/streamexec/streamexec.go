// Package streamexec is the event-driven streaming evaluator: a static
// streamability analysis over optimized plans plus a SAX-style event-handler
// automaton that evaluates streamable plans directly from the parser's token
// stream, without materializing a document store.
//
// The design follows the continuous-query line the paper surveys (XQRL's
// token-stream evaluation; Koch et al.'s buffer-minimizing FluXQuery): a plan
// is split into a SPINE of forward element steps — matched against live
// start/end-element events by the projection automaton, run over that one
// path — and a per-window RESIDUAL
// evaluated over one buffered window subtree at a time. The analysis proves a
// buffer bound (one window) or refuses, in which case execution transparently
// falls back to the regular store engine; results are never wrong, only
// sometimes less incremental.
//
// Execution is organized in window groups (Runner): the programs of one feed
// that evaluate a residual over windows of the same spine share the automaton
// and one window build per window, in an arena reused from window to window;
// a single query is a group of one.
//
// The package evaluates; it does not ingest. Tokens reach it through the
// parser's Tap in one feed loop (Dispatcher.Feed), start tags are translated
// by xmlparse.StartTag, and name tests become steps in optimizer.StepFromTest.
package streamexec

import (
	"time"

	"xqgo/internal/limits"
	"xqgo/internal/runtime"
	"xqgo/internal/trace"
	"xqgo/internal/xdm"
)

// Class is the streamability classification of a plan.
type Class uint8

const (
	// StoreRequired: the plan (or its input) needs random access to the
	// document; execution uses the regular store engine.
	StoreRequired Class = iota
	// BoundedBuffer: the plan streams with buffering bounded by one window
	// subtree (the matched spine element and its content).
	BoundedBuffer
	// FullyStreamable: the plan is an identity projection over disjoint
	// windows; tokens are forwarded as they arrive with O(depth) state.
	FullyStreamable
)

func (c Class) String() string {
	switch c {
	case FullyStreamable:
		return "fully-streamable"
	case BoundedBuffer:
		return "bounded-buffers"
	default:
		return "store-required"
	}
}

// Streamable reports whether plans of this class run on the event automaton.
func (c Class) Streamable() bool { return c != StoreRequired }

// Env carries the dynamic context a streaming execution shares with the
// store engine: external variable values (Clark-notation keys), the
// cancellation hook, the stable current dateTime, and the profile collecting
// window/buffer counters.
type Env struct {
	Vars      map[string]xdm.Sequence
	Interrupt func() error
	Now       time.Time
	Prof      *runtime.Profile
	// Trace, when non-nil, collects window open/close spans (under TraceSpan
	// when set). Only the first few windows get individual spans (see
	// maxWindowSpans) — totals always come from the profile counters.
	Trace     *trace.Trace
	TraceSpan *trace.Span
	// Budget, when non-nil, is charged for window buffer growth (and
	// discharged as windows close); overage aborts the execution with a
	// structured budget error (see internal/limits).
	Budget *limits.Budget
}
