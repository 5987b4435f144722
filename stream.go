package xqgo

import (
	"io"

	"xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/streamexec"
)

// StreamClass classifies a query's streamability (see Query.Streamability):
// whether the event-driven evaluator can run it directly off the parser's
// token stream, and with what buffering.
type StreamClass = streamexec.Class

const (
	// StreamStoreRequired: the plan needs random access to the document;
	// stream-mode executions fall back to the store engine transparently.
	StreamStoreRequired = streamexec.StoreRequired
	// StreamBoundedBuffer: streams with buffering bounded by one window
	// subtree at a time.
	StreamBoundedBuffer = streamexec.BoundedBuffer
	// StreamFullyStreamable: tokens are forwarded as they arrive with
	// near-zero buffering.
	StreamFullyStreamable = streamexec.FullyStreamable
)

// Streamability reports how the event-driven evaluator classifies this
// query, with the analysis's reason when it is store-required. The streaming
// form is compiled lazily on first use and cached on the Query.
func (q *Query) Streamability() (StreamClass, string) {
	p := q.streamProgram()
	return p.Class(), p.Reason()
}

func (q *Query) streamProgram() *streamexec.Program {
	q.streamOnce.Do(func() { q.sprog = streamexec.Compile(q.plan, q.ro) })
	return q.sprog
}

// WithStreamMode asks Execute/ExecuteContext to evaluate on the event-driven
// streaming evaluator when possible: the query must be streamable (see
// Streamability), the context must carry a streaming input
// (WithStreamingInput) and no explicit context item. Results are emitted as
// soon as each window of the input completes, the document is never
// materialized, and peak buffer bytes are bounded by one window subtree.
// When the conditions do not hold the execution silently uses the regular
// engine (counted as a stream fallback in the profile); results are
// identical either way.
func (c *Context) WithStreamMode(on bool) *Context {
	c.streamMode = on
	return c
}

// tryExecuteStream runs the streaming evaluator when the plan and context
// allow it. handled=false means the caller must run the store path.
func (q *Query) tryExecuteStream(c *Context, w io.Writer) (bool, error) {
	prog := q.streamProgram()
	if !prog.Streamable() || c.streamR == nil || c.dyn.ContextItem != nil {
		c.dyn.Prof.AddStreamFallback()
		return false, nil
	}
	in := c.streamR
	if c.dyn.Stream != nil {
		// Context-wrapped when bindContext ran, so a canceled execution
		// unblocks a pending feed read here too.
		in = c.dyn.Stream.Reader()
	}
	sw := serializer.New(w, serializer.Options{OmitXMLDecl: true})
	err := streamexec.Execute(prog, streamexec.Env{
		Vars:      c.dyn.Vars,
		Interrupt: c.dyn.Interrupt,
		Now:       c.dyn.Now,
		Prof:      c.dyn.Prof,
		Trace:     c.dyn.Trace,
		TraceSpan: c.dyn.TraceSpan,
		Budget:    c.dyn.Budget,
	}, in, runtime.IngestStats(c.dyn), sw)
	if err != nil {
		return true, err
	}
	return true, sw.Close()
}
