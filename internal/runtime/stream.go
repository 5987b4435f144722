package runtime

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"xqgo/internal/ctxio"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
)

// StreamState is a one-shot streaming XML input attached to a Dynamic: the
// document is parsed incrementally, starting at the first demand, under the
// query's static projection. It backs the public WithStreamingInput API and
// the service's request-body ingestion.
type StreamState struct {
	mu   sync.Mutex
	r    io.Reader
	opts xmlparse.Options // URI, whitespace handling, pooling
	doc  *store.Document
	// docv mirrors doc for lock-free lazy checks on the batch hot path.
	docv atomic.Pointer[store.Document]
}

// NewStreamState wraps a reader as a pending streaming input. The input is
// consumed by at most one execution (it is a reader, not a file).
func NewStreamState(r io.Reader, opts xmlparse.Options) *StreamState {
	return &StreamState{r: r, opts: opts}
}

// URI returns the URI the streamed document resolves under.
func (s *StreamState) URI() string { return s.opts.URI }

// BindContext arranges for a read of the streamed input that is pending
// when ctx is canceled to unblock and surface the cancellation error
// (rather than hanging until the producer writes, or dressing the abort
// up as a parse error). Must be called before the parse starts; a no-op
// afterwards, on a nil/never-canceled context, or on repeat calls.
func (s *StreamState) BindContext(ctx context.Context) {
	if s == nil || ctx == nil || ctx.Done() == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doc != nil {
		return
	}
	if _, ok := s.r.(*ctxio.Reader); ok {
		return
	}
	s.r = ctxio.NewReader(ctx, s.r)
}

// Reader returns the stream's input reader — context-wrapped when
// BindContext ran — for callers that drive their own parse (the
// event-driven execute path).
func (s *StreamState) Reader() io.Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r
}

// docFor returns the streamed document, starting the incremental parse on
// first use with the execution's projection, profile sink, and memory
// budget.
func (s *StreamState) docFor(d *Dynamic) *store.Document {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doc == nil {
		o := s.opts
		o.Projection = d.proj.Load()
		o.Stats = ingestStats{d: d}
		if b := d.Budget; b != nil {
			o.Charge = b.Charge
		}
		s.doc = xmlparse.ParseIncremental(s.r, o).Document()
		s.docv.Store(s.doc)
	}
	return s.doc
}

// lazy reports whether the streamed document is still being parsed (true
// before the parse has even started). Batched operators use this to drop to
// item-granularity demand so a batch fill cannot force input past the items
// it returns.
func (s *StreamState) lazy() bool {
	d := s.docv.Load()
	return d == nil || d.Lazy()
}

// streamingLazy reports whether this execution reads a streamed input that
// has not been fully parsed yet. Always false without a streaming input, so
// the check costs one nil test on non-streaming executions.
func (d *Dynamic) streamingLazy() bool {
	return d.Stream != nil && d.Stream.lazy()
}

// ingestStats routes parser counters into the execution profile. The
// profile adders are nil-safe, so an unprofiled run pays four nil checks
// per parse increment.
type ingestStats struct{ d *Dynamic }

func (s ingestStats) OnParse(tokens, built, skipped, bytes int64) {
	p := s.d.Prof
	p.addXMLTokens(tokens)
	p.addDocNodesBuilt(built)
	p.addNodesSkipped(skipped)
	p.addBytesParsed(bytes)
}

// IngestStats returns the xmlparse.Stats sink routing parser counters into
// d's profile. The event-driven stream path drives its own parse (bypassing
// StreamState), so it needs the same sink StreamState installs internally.
func IngestStats(d *Dynamic) xmlparse.Stats { return ingestStats{d: d} }

// RunIter is a closable result iterator over one execution: the engine
// boundary for callers that pull items instead of materializing. Unlike the
// raw plan iterator it converts lazy-ingestion panics into errors and can
// release pooled batch buffers early via Close.
type RunIter struct {
	dyn  *Dynamic
	src  Iter
	done bool
}

// RunIterator starts an execution and returns its closable iterator.
func (p *Prepared) RunIterator(dyn *Dynamic) (it *RunIter, err error) {
	defer recoverXQ(&err)
	fr, err := p.newRootFrame(dyn)
	if err != nil {
		return nil, err
	}
	return &RunIter{dyn: fr.dyn, src: p.body(fr)}, nil
}

// Next produces the next result item; ok is false at the end.
func (r *RunIter) Next() (item xdm.Item, ok bool, err error) {
	if r.done || r.src == nil {
		return nil, false, nil
	}
	defer recoverXQ(&err)
	item, ok, err = r.src.Next()
	if err != nil || !ok {
		r.done = true
	}
	return item, ok, err
}

// Close releases the execution's pooled batch buffers and ends iteration.
// Safe to call multiple times; Next returns exhaustion afterwards.
func (r *RunIter) Close() {
	r.done = true
	r.src = nil
	if r.dyn != nil {
		r.dyn.bufMu.Lock()
		r.dyn.bufFree = nil
		r.dyn.bufMu.Unlock()
	}
}
