package xqgo

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"xqgo/internal/projection"
	"xqgo/internal/runtime"
	"xqgo/internal/store"
	"xqgo/internal/streamexec"
	"xqgo/internal/xmlparse"
)

// Subscriber registers any number of compiled queries as continuous queries
// over one live XML feed and evaluates them all in a single parse pass.
// Streamable queries (see Query.Streamability) run on the event-driven
// evaluator and deliver each result item as soon as its window of the input
// completes; store-required queries transparently fall back — the feed is
// materialized once, under the union of their static projections, and they
// evaluate when the feed ends.
//
// A Subscriber is single-use: register subscriptions, call Run once.
// Delivery callbacks run on Run's goroutine; Subscription.Close is safe from
// any goroutine.
type Subscriber struct {
	prof   *Profile
	trace  *Trace
	budget *MemoryBudget
	subs   []*Subscription
}

// NewSubscriber creates an empty subscriber.
func NewSubscriber() *Subscriber { return &Subscriber{} }

// WithProfile attaches a profile collecting the feed's engine counters
// (stream windows/results, buffer high-water mark, fallbacks).
func (s *Subscriber) WithProfile(p *Profile) *Subscriber {
	s.prof = p
	return s
}

// WithTrace attaches a trace to the feed: Run records a "feed" span with the
// first windows of each streamable subscription as live child spans.
func (s *Subscriber) WithTrace(t *Trace) *Subscriber {
	s.trace = t
	return s
}

// WithBudget attaches a memory budget to the feed: window buffers, any
// fallback materialization of the feed, and fallback evaluation all charge
// it, so one runaway feed trips a structured budget error instead of
// growing without bound. The caller releases the budget (ReleaseAll) when
// the feed ends.
func (s *Subscriber) WithBudget(b *MemoryBudget) *Subscriber {
	s.budget = b
	return s
}

// Subscribe registers a continuous query. deliver receives each result item
// as a serialized XML fragment, in result order, on Run's goroutine; a
// non-nil error cancels this subscription only (the feed keeps flowing to
// the others). Queries requiring external variables are not supported as
// subscriptions.
func (s *Subscriber) Subscribe(q *Query, deliver func(xml []byte) error) *Subscription {
	sub := &Subscription{query: q, prog: q.streamProgram(), deliver: deliver}
	s.subs = append(s.subs, sub)
	return sub
}

// Subscriptions returns the registered subscriptions in registration order.
func (s *Subscriber) Subscriptions() []*Subscription { return s.subs }

// Run consumes the feed to EOF, dispatching tokens to every subscription in
// one pass. It returns the feed's error (parse failure, context
// cancellation); per-subscription evaluation errors are recorded on their
// Subscription (Err) and do not stop the feed.
func (s *Subscriber) Run(ctx context.Context, r io.Reader, uri string) error {
	env := streamexec.Env{Prof: s.prof, Trace: s.trace, Budget: s.budget}
	if s.trace != nil {
		feed := s.trace.StartSpan("feed", nil).
			SetAttr("uri", uri).SetAttr("subscriptions", len(s.subs))
		env.TraceSpan = feed
		defer feed.End()
	}
	if ctx != nil && ctx.Done() != nil {
		env.Interrupt = func() error { return ctx.Err() }
	}

	// Streamable subscriptions that evaluate over windows of the same spine
	// share one window group (see streamexec.Dispatcher.Subscribe).
	d := streamexec.NewDispatcher(env)
	var fallback []*Subscription
	proj := projection.New()
	for _, sub := range s.subs {
		if sub.prog.Streamable() {
			sub.member = d.Subscribe(sub.prog, sub.safeDeliver)
			continue
		}
		s.prof.AddStreamFallback()
		sub.fellBack = true
		fallback = append(fallback, sub)
		proj = unionProjection(proj, sub.query.ro.Projection)
	}

	// One parse pass: every token goes to the window groups, and the parse
	// builds the union projection for the fallbacks (nothing without any).
	popts := xmlparse.Options{URI: uri, Projection: proj}
	if s.budget != nil {
		popts.Charge = s.budget.Charge
	}
	doc, err := d.Feed(r, popts)
	if err != nil {
		return err
	}

	// Store-required subscriptions evaluate over the materialized feed.
	for _, sub := range fallback {
		if sub.closed.Load() {
			continue
		}
		if err := sub.evalStore(doc, env); err != nil {
			sub.storeErr.Store(&errBox{err})
		}
	}
	return nil
}

// unionProjection merges one query's static projection into the shared
// fallback projection (nil or keep-all poisons the union: the whole feed is
// materialized).
func unionProjection(acc, p *projection.Paths) *projection.Paths {
	if acc.KeepAll {
		return acc
	}
	if p == nil || p.KeepAll {
		return projection.KeepEverything()
	}
	for _, path := range p.List {
		acc.Add(path)
	}
	return acc
}

// Subscription is one continuous query registered on a Subscriber.
type Subscription struct {
	query   *Query
	prog    *streamexec.Program
	deliver func([]byte) error

	// Streamable subscriptions: the seat in the feed's window group.
	member *streamexec.Member

	// Fallback subscriptions.
	fellBack     bool
	closed       atomic.Bool
	storeResults atomic.Int64
	lastResult   atomic.Int64 // unix nanos of the last store-path delivery
	storeErr     atomic.Pointer[errBox]
}

type errBox struct{ err error }

// Class returns the subscription query's streamability class.
func (s *Subscription) Class() StreamClass { return s.prog.Class() }

// Reason explains a store-required class (empty otherwise).
func (s *Subscription) Reason() string { return s.prog.Reason() }

// Close cancels the subscription: no further results are delivered, the
// feed continues for other subscriptions. Idempotent, safe from any
// goroutine.
func (s *Subscription) Close() {
	s.closed.Store(true)
	if s.member != nil {
		s.member.Close()
	}
}

// Err returns the error that ended this subscription early, if any (a
// delivery error or a per-window evaluation error).
func (s *Subscription) Err() error {
	if s.member != nil {
		return s.member.Err()
	}
	if b := s.storeErr.Load(); b != nil {
		return b.err
	}
	return nil
}

// SubscriptionStats are one subscription's lifetime totals.
type SubscriptionStats struct {
	// Class is the streamability class ("fully-streamable",
	// "bounded-buffers", "store-required").
	Class string `json:"class"`
	// FellBack marks a store-required subscription (evaluated at feed end).
	FellBack bool `json:"fellBack"`
	// Windows opened by the spine automaton (0 for fallbacks).
	Windows int64 `json:"windows"`
	// Results delivered.
	Results int64 `json:"results"`
	// PeakBufferBytes is the buffer high-water mark (0 for fully-streamable
	// plans and fallbacks).
	PeakBufferBytes int64 `json:"peakBufferBytes"`
	// LastResultUnixNano is the wall clock of the most recent delivery
	// (0 before the first) — the basis for per-handle lag gauges.
	LastResultUnixNano int64 `json:"lastResultUnixNano,omitempty"`
}

// Stats snapshots the subscription's totals. Safe from any goroutine while
// the feed runs (the service's live introspection endpoint polls it), from
// delivery callbacks, and after Run returns.
func (s *Subscription) Stats() SubscriptionStats {
	st := SubscriptionStats{Class: s.prog.Class().String(), FellBack: s.fellBack}
	if s.member != nil {
		rs := s.member.Stats()
		st.Windows, st.Results, st.PeakBufferBytes = rs.Windows, rs.Results, rs.PeakBufferBytes
		st.LastResultUnixNano = rs.LastResultUnixNano
		return st
	}
	st.Results = s.storeResults.Load()
	st.LastResultUnixNano = s.lastResult.Load()
	return st
}

// safeDeliver drops results after Close without erroring the member.
func (s *Subscription) safeDeliver(xml []byte) error {
	if s.closed.Load() {
		return nil
	}
	return s.deliver(xml)
}

// evalStore runs a fallback subscription over the materialized feed,
// framing each result item exactly like the streaming path (token
// serialization per item). Panics (in evaluation or in the delivery
// callback) are converted at this boundary so one poisoned subscription
// never takes down its feed's siblings.
func (s *Subscription) evalStore(doc *store.Document, env streamexec.Env) (err error) {
	defer runtime.RecoverXQ(&err)
	dyn := &runtime.Dynamic{
		ContextItem: doc.RootNode(),
		Interrupt:   env.Interrupt,
		Now:         env.Now,
		Budget:      env.Budget,
	}
	// The fallback runs this subscription's own plan, which need not match
	// the plan env.Prof was sized for (operator ids are plan-specific —
	// sharing the profile would index out of range). Profile under a
	// plan-sized profile and fold the counters back.
	if env.Prof != nil {
		prof := s.query.prepared.NewProfile(false)
		dyn.Prof = prof
		defer func() { env.Prof.Merge(prof.Report().Counters) }()
	}
	it, err := s.query.prepared.RunIterator(dyn)
	if err != nil {
		return err
	}
	defer it.Close()
	f := streamexec.NewResultFramer(s.deliver)
	for {
		item, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok || s.closed.Load() {
			return nil
		}
		if err := f.WriteItem(item); err != nil {
			return err
		}
		s.storeResults.Add(1)
		s.lastResult.Store(time.Now().UnixNano())
		env.Prof.AddStreamResults(1)
		if err := f.EndResult(); err != nil {
			return err
		}
	}
}
