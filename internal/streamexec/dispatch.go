package streamexec

import (
	"bytes"
	"encoding/xml"

	"xqgo/internal/serializer"
	"xqgo/internal/tokens"
	"xqgo/internal/xdm"
)

// Dispatcher fans one decoder token stream out to the window groups of a
// feed (the pub/sub core: N continuous queries share a single parse pass
// and, where their spines agree, a single window build). A member that errors
// is detached — its error is recorded on its handle and the feed keeps
// flowing to the others. Token delivery is single-threaded (the parse
// goroutine); Member.Close is safe from any goroutine.
type Dispatcher struct {
	env     Env
	runners []*Runner
}

// NewDispatcher creates a dispatcher whose subscriptions all run under env.
func NewDispatcher(env Env) *Dispatcher { return &Dispatcher{env: env} }

// Subscribe registers a streamable program delivering each result item as
// one serialized XML fragment; deliver owns the byte slice. Programs that
// evaluate a residual over child-only windows of the same spine share one
// Runner — the window is built once and evaluated per member, in
// registration order; every other program gets a runner of its own.
func (d *Dispatcher) Subscribe(p *Program, deliver func(xml []byte) error) *Member {
	for _, r := range d.runners {
		if r.accepts(p) {
			return r.addResults(p, deliver)
		}
	}
	r := newRunner(p, d.env)
	d.runners = append(d.runners, r)
	return r.addResults(p, deliver)
}

// Token delivers one token to every group — install this as the parser's
// Tap. It never returns an error: failures (errors AND panics — one
// poisoned handler must never kill the feed's siblings) are recorded on the
// members they detach.
func (d *Dispatcher) Token(tok xml.Token) error {
	for _, r := range d.runners {
		_ = r.Token(tok) // already recorded on the members it ended
	}
	return nil
}

// Finish signals end of input to every group.
func (d *Dispatcher) Finish() {
	for _, r := range d.runners {
		_ = r.Finish() // already recorded on the members it ended
	}
}

// Live reports how many members are still attached.
func (d *Dispatcher) Live() int {
	n := 0
	for _, r := range d.runners {
		for _, m := range r.members {
			if !m.closed.Load() {
				n++
			}
		}
	}
	return n
}

// ResultFramer frames results for delivery one item at a time: the tokens of
// an item are serialized into a reused buffer and writer, and EndResult hands
// deliver a copy it owns. Both subscription paths — streamed windows and the
// store fallback — frame through it, so an item serializes the same either
// way.
type ResultFramer struct {
	buf     bytes.Buffer
	sw      *serializer.Writer
	deliver func([]byte) error
}

// NewResultFramer creates a framer delivering to deliver.
func NewResultFramer(deliver func(xml []byte) error) *ResultFramer {
	f := &ResultFramer{deliver: deliver}
	f.sw = serializer.New(&f.buf, serializer.Options{OmitXMLDecl: true})
	return f
}

// WriteToken adds one token to the current result item.
func (f *ResultFramer) WriteToken(t tokens.Token) error { return f.sw.WriteToken(t) }

// WriteItem adds the tokens of one whole item to the current result item.
func (f *ResultFramer) WriteItem(item xdm.Item) error { return f.sw.WriteItem(item) }

// EndResult completes the current item and delivers it.
func (f *ResultFramer) EndResult() error {
	if err := f.sw.Close(); err != nil {
		return err
	}
	out := append([]byte(nil), f.buf.Bytes()...)
	f.buf.Reset()
	f.sw.Reset(&f.buf)
	return f.deliver(out)
}
