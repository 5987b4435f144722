package service

// POST /subscribe: the pub/sub face of the event-driven streaming evaluator.
// One request registers N compiled queries as continuous queries against its
// own body, treated as a live XML feed. A single shared parse pass fans every
// token out to all subscriptions (xqgo.Subscriber); each result item streams
// back to the client as a Server-Sent Events frame the moment its window of
// the input completes. Store-required queries transparently fall back: the
// feed is materialized once under the union of their projections and they
// answer when the feed ends.
//
// Event protocol (all data payloads are single-line JSON):
//
//	event: subscribed   [{"id":0,"query":"...","class":"fully-streamable"}, ...]
//	event: result       {"sub":0,"seq":1,"xml":"<title>...</title>"}
//	event: error        {"sub":0,"error":"..."}        (sub -1 = the feed)
//	event: end          [{"id":0,"class":...,"results":N,...}, ...]
//	event: goodbye      {"reason":"server shutting down"}
//
// Subscriber feeds are long-lived, so they are admitted by their own cap
// (Config.MaxSubscribers) and never occupy executor worker slots.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xqgo"
	"xqgo/internal/ctxio"
	"xqgo/internal/faultinject"
	"xqgo/internal/limits"
)

// subCore aggregates subscription accounting across the service lifetime and
// tracks the feeds streaming right now (the GET /subscriptions registry).
type subCore struct {
	active     atomic.Int64 // subscriber feeds currently streaming
	feeds      atomic.Int64 // lifetime subscriber feeds admitted
	registered atomic.Int64 // lifetime subscriptions registered
	results    atomic.Int64 // result events delivered
	fallbacks  atomic.Int64 // store-required subscriptions admitted
	peakBuffer atomic.Int64 // high-water mark over all subscriptions' buffers

	mu     sync.Mutex
	nextID uint64
	live   map[uint64]*liveFeed
}

// liveFeed is one in-flight subscriber connection in the live registry.
// Immutable after registration; the per-handle gauges are read through
// Subscription.Stats, which is safe while the feed runs.
type liveFeed struct {
	id      uint64
	started time.Time
	remote  string
	traceID string
	queries []string
	handles []*xqgo.Subscription
}

func (c *subCore) register(f *liveFeed) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	f.id = c.nextID
	if c.live == nil {
		c.live = make(map[uint64]*liveFeed)
	}
	c.live[f.id] = f
	return f.id
}

func (c *subCore) unregister(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.live, id)
}

// FeedStatus is one live subscriber feed on GET /subscriptions.
type FeedStatus struct {
	ID         uint64       `json:"id"`
	Remote     string       `json:"remote,omitempty"`
	TraceID    string       `json:"traceId,omitempty"`
	UptimeSecs float64      `json:"uptimeSecs"`
	Handles    []HandleInfo `json:"handles"`
}

// HandleInfo is one subscription's live gauges within a feed.
type HandleInfo struct {
	ID    int    `json:"id"`
	Query string `json:"query"`
	Class string `json:"class"`
	// FellBack marks a store-required subscription (answers at feed end).
	FellBack bool `json:"fellBack"`
	// Windows opened so far by the spine automaton.
	Windows int64 `json:"windows"`
	// Results delivered so far.
	Results int64 `json:"results"`
	// PeakBufferBytes is the buffer high-water mark so far.
	PeakBufferBytes int64 `json:"peakBufferBytes"`
	// LastResultUnixNano is the wall clock of the most recent delivery
	// (0 before the first).
	LastResultUnixNano int64 `json:"lastResultUnixNano,omitempty"`
	// LagSecs is seconds since the most recent delivery — the per-handle
	// staleness gauge (absent before the first result).
	LagSecs float64 `json:"lagSecs,omitempty"`
}

// Subscriptions snapshots every live subscriber feed with per-handle window,
// result, buffer and lag gauges. Safe to call while feeds stream.
func (s *Service) Subscriptions() []FeedStatus {
	s.subs.mu.Lock()
	feeds := make([]*liveFeed, 0, len(s.subs.live))
	for _, f := range s.subs.live {
		feeds = append(feeds, f)
	}
	s.subs.mu.Unlock()
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].id < feeds[j].id })

	now := time.Now()
	out := make([]FeedStatus, 0, len(feeds))
	for _, f := range feeds {
		fs := FeedStatus{
			ID: f.id, Remote: f.remote, TraceID: f.traceID,
			UptimeSecs: now.Sub(f.started).Seconds(),
			Handles:    make([]HandleInfo, 0, len(f.handles)),
		}
		for i, h := range f.handles {
			st := h.Stats()
			hi := HandleInfo{
				ID: i, Query: f.queries[i], Class: st.Class, FellBack: st.FellBack,
				Windows: st.Windows, Results: st.Results,
				PeakBufferBytes:    st.PeakBufferBytes,
				LastResultUnixNano: st.LastResultUnixNano,
			}
			if st.LastResultUnixNano > 0 {
				hi.LagSecs = now.Sub(time.Unix(0, st.LastResultUnixNano)).Seconds()
			}
			fs.Handles = append(fs.Handles, hi)
		}
		out = append(out, fs)
	}
	return out
}

func (c *subCore) notePeak(v int64) {
	for {
		cur := c.peakBuffer.Load()
		if v <= cur || c.peakBuffer.CompareAndSwap(cur, v) {
			return
		}
	}
}

// maxSSESpans caps per-delivery "sse:result" spans recorded on a feed's
// trace, so a long feed cannot exhaust the span budget.
const maxSSESpans = 32

// subInfo is one entry of the "subscribed" event.
type subInfo struct {
	ID     int    `json:"id"`
	Query  string `json:"query"`
	Class  string `json:"class"`
	Reason string `json:"reason,omitempty"`
}

// subResult is the "result" event payload. XML is JSON-escaped, so raw
// newlines in the fragment can never break SSE line framing.
type subResult struct {
	Sub int    `json:"sub"`
	Seq int64  `json:"seq"`
	XML string `json:"xml"`
}

// subError is the "error" event payload; Sub -1 means the feed itself.
type subError struct {
	Sub   int    `json:"sub"`
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// subEnd is one entry of the "end" event: the subscription's lifetime stats.
type subEnd struct {
	ID int `json:"id"`
	xqgo.SubscriptionStats
}

// sseEvent writes one Server-Sent Events frame and flushes it to the client.
// data must be a single line (JSON marshaling guarantees that).
func sseEvent(w io.Writer, f http.Flusher, event string, data []byte) error {
	// Chaos injection points: a slow consumer (delay-only fault) stalls the
	// write; a write error simulates the client connection breaking mid-frame.
	if err := faultinject.Fire(faultinject.SSESlow); err != nil {
		return err
	}
	if err := faultinject.Fire(faultinject.SSEWrite); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	if f != nil {
		f.Flush()
	}
	return nil
}

func (s *Service) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.ShuttingDown() {
		writeError(w, ErrShuttingDown)
		return
	}
	if s.gov.Overloaded() {
		s.gov.NoteShed()
		writeError(w, ErrOverloaded)
		return
	}
	queries := r.URL.Query()["query"]
	if len(queries) == 0 {
		writeError(w, &BadRequestError{Err: errors.New("missing \"query\" parameter")})
		return
	}
	if len(queries) > s.cfg.MaxSubscriptions {
		writeError(w, &BadRequestError{Err: fmt.Errorf(
			"%d subscriptions exceed the per-request limit of %d", len(queries), s.cfg.MaxSubscriptions)})
		return
	}
	if s.subs.active.Add(1) > int64(s.cfg.MaxSubscribers) {
		s.subs.active.Add(-1)
		writeError(w, fmt.Errorf("%w (subscriber cap %d reached)", ErrSaturated, s.cfg.MaxSubscribers))
		return
	}
	defer s.subs.active.Add(-1)

	// Compile (or fetch from the shared plan cache) before committing to the
	// SSE response, so malformed queries still get a clean 400.
	plans := make([]*xqgo.Query, len(queries))
	for i, src := range queries {
		opts := s.cfg.Options
		plan, _, err := s.plans.Get(src, &opts)
		if err != nil {
			writeError(w, &BadRequestError{Err: fmt.Errorf("query %d: %v", i, err)})
			return
		}
		plans[i] = plan
	}
	s.subs.feeds.Add(1)
	s.subs.registered.Add(int64(len(plans)))

	// The client going away cancels r.Context(); Service.Shutdown must also
	// end the feed even though http.Server.Shutdown leaves in-flight
	// requests running.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var shuttingDown atomic.Bool
	go func() {
		select {
		case <-s.shutdown:
			shuttingDown.Store(true)
			cancel()
		case <-ctx.Done():
		}
	}()

	var prof *xqgo.Profile
	if !s.cfg.DisableProfiling {
		prof = plans[0].NewCountersProfile()
	}
	tr := requestTrace(r, s.cfg.DisableTracing)
	var traceID string
	if tr != nil {
		traceID = tr.ID()
	}
	feedStart := time.Now()
	flusher, _ := w.(http.Flusher)
	sub := xqgo.NewSubscriber().WithProfile(prof).WithTrace(tr)

	// Per-feed memory budget: window buffers and any fallback materialization
	// of the feed charge against the same cap a one-shot query gets, and the
	// governor sees the feed's retained bytes for admission decisions.
	var budget *limits.Budget
	if s.cfg.MaxQueryBytes > 0 || s.gov.SoftLimit() > 0 {
		budget = limits.NewBudget(s.cfg.MaxQueryBytes, s.gov)
		budget.SetTraceID(traceID)
		defer budget.ReleaseAll()
		sub.WithBudget(budget)
	}

	infos := make([]subInfo, len(plans))
	handles := make([]*xqgo.Subscription, len(plans))
	for i, plan := range plans {
		i := i
		var seq int64
		handles[i] = sub.Subscribe(plan, func(xml []byte) error {
			seq++
			s.subs.results.Add(1)
			data, err := json.Marshal(subResult{Sub: i, Seq: seq, XML: string(xml)})
			if err != nil {
				return err
			}
			wstart := time.Now()
			werr := sseEvent(w, flusher, "result", data)
			if tr != nil && seq <= maxSSESpans {
				tr.AddSpan("sse:result", nil, wstart, time.Now()).
					SetAttr("sub", i).SetAttr("seq", seq).SetAttr("bytes", len(data))
			}
			return werr
		})
		class, reason := plan.Streamability()
		infos[i] = subInfo{ID: i, Query: queries[i], Class: class.String(), Reason: reason}
		if class == xqgo.StreamStoreRequired {
			s.subs.fallbacks.Add(1)
		}
	}

	// Without full duplex, HTTP/1.x servers block the first response write
	// on draining the remaining request body — a deadlock against a live
	// feed — and close the body afterwards. Not every ResponseWriter
	// supports it (test recorders, HTTP/2 is duplex natively); best effort.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	traceHeaders(w, tr)
	w.WriteHeader(http.StatusOK)
	if data, err := json.Marshal(infos); err == nil {
		if sseEvent(w, flusher, "subscribed", data) != nil {
			return
		}
	}

	// The feed is now live: expose it to GET /subscriptions until it ends.
	feedID := s.subs.register(&liveFeed{
		started: feedStart, remote: r.RemoteAddr, traceID: traceID,
		queries: queries, handles: handles,
	})
	// A blocking feed read must abort when ctx is cancelled, so that
	// Service.Shutdown ends an idle feed whose client is sending nothing.
	runErr := sub.Run(ctx, ctxio.NewReader(ctx, r.Body), StreamBodyURI)
	s.subs.unregister(feedID)
	s.stats.observeFeed(time.Since(feedStart))
	if budget != nil && budget.Trips() > 0 {
		s.stats.noteBudgetTrip("subscribe")
	}
	if tr != nil {
		s.traces.Add(tr.Finish())
	}

	for i, h := range handles {
		s.subs.notePeak(h.Stats().PeakBufferBytes)
		if err := h.Err(); err != nil {
			data, _ := json.Marshal(subError{Sub: i, Error: err.Error(), Code: ErrorCode(err)})
			_ = sseEvent(w, flusher, "error", data)
		}
	}
	if prof != nil {
		s.stats.addEngine(prof.Report().Counters)
	}

	switch {
	case shuttingDown.Load():
		_ = sseEvent(w, flusher, "goodbye", []byte(`{"reason":"server shutting down"}`))
	case ctx.Err() != nil:
		// Client went away mid-feed; nobody is listening.
	case runErr != nil:
		data, _ := json.Marshal(subError{Sub: -1, Error: runErr.Error(), Code: ErrorCode(runErr)})
		_ = sseEvent(w, flusher, "error", data)
	default:
		ends := make([]subEnd, len(handles))
		for i, h := range handles {
			ends[i] = subEnd{ID: i, SubscriptionStats: h.Stats()}
		}
		data, _ := json.Marshal(ends)
		_ = sseEvent(w, flusher, "end", data)
	}
}
