// Package trace is a zero-dependency, W3C-traceparent-compatible span layer
// for request-scoped diagnostics: one Trace per request or subscription,
// spans for every pipeline stage (ingestion, projection, optimizer rewrites,
// per-operator execution, streaming windows, delivery), and a ring-buffered
// Store of completed traces served over HTTP.
//
// The design is deliberately lighter than OpenTelemetry: ids and the
// traceparent wire format follow the W3C Trace Context recommendation
// (https://www.w3.org/TR/trace-context/), so xqd traces correlate with any
// upstream proxy or caller that propagates the header, but spans live in
// process memory only — there is no exporter, no sampler, no external
// dependency. A Trace is safe for concurrent use (the parallel engine and
// SSE delivery share one per request); the off path is a nil check.
package trace

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace id (32 lowercase hex digits on the wire).
type TraceID [16]byte

// SpanID is the 8-byte W3C span id (16 lowercase hex digits on the wire).
type SpanID [8]byte

func (id TraceID) String() string { return hex.EncodeToString(id[:]) }
func (id SpanID) String() string  { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is the all-zero (invalid) id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is the all-zero (invalid) id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// DefaultMaxSpans bounds the spans one trace retains. Span creation past the
// cap is counted (Data.Dropped) but records nothing, so a pathological
// request cannot grow a trace without bound. Engine stages that emit
// per-event spans (streaming windows, SSE results) apply their own smaller
// caps first so summary spans synthesized at request end still fit.
const DefaultMaxSpans = 512

// Attr is one key/value annotation on a span. Values should be JSON-encodable
// (strings, integers, floats, bools, string slices).
type Attr struct {
	Key   string
	Value any
}

// Span is one timed stage of a trace. Created by Trace.StartSpan, annotated
// with SetAttr, closed with End. Attribute writes and End are safe from the
// goroutine that owns the stage; concurrent SetAttr calls on the same span
// are serialized by the owning trace's lock.
type Span struct {
	t      *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
}

// ID returns the span's id.
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr annotates the span. Nil-safe (a span from an over-cap trace is nil).
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
	return s
}

// End closes the span at time.Now. Nil-safe and idempotent: only the first
// End sets the end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.t.mu.Unlock()
}

// Trace is one request's span collection. Create with New (or adopt an
// incoming context with FromTraceparent), add spans while the request runs,
// and call Finish once to snapshot it for the store.
type Trace struct {
	mu       sync.Mutex
	id       TraceID
	remote   SpanID // parent span id from an incoming traceparent header
	spans    []*Span
	root     *Span
	start    time.Time
	maxSpans int
	dropped  int
}

// New creates an empty trace with a fresh random trace id.
func New() *Trace {
	return &Trace{id: newTraceID(), start: time.Now(), maxSpans: DefaultMaxSpans}
}

// FromTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>") and returns a trace that continues the
// incoming trace id with the incoming span as remote parent. ok is false for
// malformed or all-zero values; callers should fall back to New.
func FromTraceparent(header string) (*Trace, bool) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return nil, false
	}
	if parts[0] == "ff" { // forbidden version
		return nil, false
	}
	var tid TraceID
	var sid SpanID
	if _, err := hex.Decode(tid[:], []byte(strings.ToLower(parts[1]))); err != nil {
		return nil, false
	}
	if _, err := hex.Decode(sid[:], []byte(strings.ToLower(parts[2]))); err != nil {
		return nil, false
	}
	if _, err := hex.DecodeString(strings.ToLower(parts[3])); err != nil {
		return nil, false
	}
	if tid.IsZero() || sid.IsZero() {
		return nil, false
	}
	t := New()
	t.id = tid
	t.remote = sid
	return t, true
}

// ID returns the trace id in wire form (32 lowercase hex digits).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id.String()
}

// Traceparent renders the outgoing W3C traceparent header for this trace:
// version 00, the trace id, the root span id (or the remote parent before a
// root span exists), sampled flag set.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	sid := t.remote
	if t.root != nil {
		sid = t.root.id
	}
	t.mu.Unlock()
	if sid.IsZero() {
		sid = newSpanID()
	}
	return fmt.Sprintf("00-%s-%s-01", t.id, sid)
}

// StartSpan opens a span. A nil parent parents the span under the trace's
// root span (the first span ever started becomes the root; its own parent is
// the remote traceparent span when one was adopted). Returns nil once the
// span cap is reached — all Span methods are nil-safe, so callers never
// guard.
func (t *Trace) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return nil
	}
	s := &Span{t: t, id: newSpanID(), name: name, start: time.Now()}
	switch {
	case parent != nil:
		s.parent = parent.id
	case t.root != nil:
		s.parent = t.root.id
	default:
		s.parent = t.remote
		t.root = s
	}
	t.spans = append(t.spans, s)
	return s
}

// AddSpan records an already-timed span in one call (used for stages whose
// timing is known only after the fact, like profile-derived operator spans).
// Zero start/end collapse to the call time.
func (t *Trace) AddSpan(name string, parent *Span, start, end time.Time, attrs ...Attr) *Span {
	s := t.StartSpan(name, parent)
	if s == nil {
		return nil
	}
	t.mu.Lock()
	if !start.IsZero() {
		s.start = start
	}
	if end.IsZero() {
		end = s.start
	}
	s.end = end
	s.attrs = append(s.attrs, attrs...)
	t.mu.Unlock()
	return s
}

// SpanData is the JSON-ready form of one finished span.
type SpanData struct {
	ID       string         `json:"id"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	StartUTC time.Time      `json:"start"`
	Micros   int64          `json:"micros"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Data is the JSON-ready snapshot of one finished trace.
type Data struct {
	TraceID  string     `json:"traceId"`
	Remote   string     `json:"remoteParent,omitempty"`
	StartUTC time.Time  `json:"start"`
	Micros   int64      `json:"micros"`
	Root     string     `json:"root,omitempty"`
	Spans    []SpanData `json:"spans"`
	Dropped  int        `json:"droppedSpans,omitempty"`
}

// Finish snapshots the trace: open spans (including the root) are closed at
// now and every span is rendered JSON-ready, in start order. The trace should
// not be used after Finish.
func (t *Trace) Finish() Data {
	if t == nil {
		return Data{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := Data{
		TraceID:  t.id.String(),
		StartUTC: t.start.UTC(),
		Micros:   now.Sub(t.start).Microseconds(),
		Dropped:  t.dropped,
		Spans:    make([]SpanData, 0, len(t.spans)),
	}
	if !t.remote.IsZero() {
		d.Remote = t.remote.String()
	}
	if t.root != nil {
		d.Root = t.root.id.String()
	}
	for _, s := range t.spans {
		end := s.end
		if end.IsZero() {
			end = now
		}
		sd := SpanData{
			ID:       s.id.String(),
			Name:     s.name,
			StartUTC: s.start.UTC(),
			Micros:   end.Sub(s.start).Microseconds(),
		}
		if !s.parent.IsZero() {
			sd.Parent = s.parent.String()
		}
		if len(s.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				sd.Attrs[a.Key] = a.Value
			}
		}
		d.Spans = append(d.Spans, sd)
	}
	return d
}
