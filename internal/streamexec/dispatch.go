package streamexec

import (
	"bytes"
	"io"

	"xqgo/internal/projection"
	"xqgo/internal/serializer"
	"xqgo/internal/store"
	"xqgo/internal/tokens"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xmlscan"
)

// Dispatcher fans one scanned token stream out to the window groups of a
// feed (the pub/sub core: N continuous queries share a single parse pass
// and, where their spines agree, a single window build). A member that errors
// is detached — its error is recorded on its handle and the feed keeps
// flowing to the others. Token delivery is single-threaded (the parse
// goroutine); Member.Close is safe from any goroutine.
type Dispatcher struct {
	env     Env
	runners []*Runner
	// solo marks the Execute form (see Execute): the one group's failure is
	// the feed's.
	solo   bool
	inToks int64 // input tokens seen, for interrupt pacing
}

// NewDispatcher creates a dispatcher whose subscriptions all run under env.
func NewDispatcher(env Env) *Dispatcher { return &Dispatcher{env: env} }

// Subscribe registers a streamable program delivering each result item as
// one serialized XML fragment; deliver owns the byte slice. Programs that
// evaluate a residual over child-only windows of the same spine share one
// Runner — the window is built once and evaluated per member, in
// registration order; every other program gets a runner of its own.
func (d *Dispatcher) Subscribe(p *Program, deliver func(xml []byte) error) *Member {
	f := NewResultFramer(deliver)
	for _, r := range d.runners {
		if r.accepts(p) {
			return r.add(p, f.WriteToken, f.EndResult)
		}
	}
	return d.group(p).add(p, f.WriteToken, f.EndResult)
}

func (d *Dispatcher) group(p *Program) *Runner {
	r := newRunner(p, d.env)
	d.runners = append(d.runners, r)
	return r
}

// Execute evaluates p over the document read from r: a feed of one group of
// one, whose results all go to one shared token writer (they concatenate
// exactly like the store engine's ExecuteToWriter, including the
// adjacent-atomic space rule) and whose first failure stops the read. The
// parse builds nothing; stats receives its counters.
func Execute(p *Program, env Env, r io.Reader, stats xmlparse.Stats, sw *serializer.Writer) error {
	d := NewDispatcher(env)
	d.write(p, sw)
	_, err := d.Feed(r, xmlparse.Options{Projection: projection.New(), Stats: stats})
	return err
}

func (d *Dispatcher) write(p *Program, sw *serializer.Writer) *Member {
	d.solo = true
	return d.group(p).add(p, sw.WriteToken, nil)
}

// Feed is the one feed loop: it parses r in a single pass with Token as the
// parse's event listener and finishes the groups at end of input. opts says
// what the parse builds beside them — the union of the store-required
// subscriptions' projections, or nothing under an empty one — and Feed
// returns that document.
func (d *Dispatcher) Feed(r io.Reader, opts xmlparse.Options) (*store.Document, error) {
	opts.Events = d.Token
	p := xmlparse.ParseIncremental(r, opts)
	for {
		done, err := p.Advance()
		if err != nil {
			return nil, err
		}
		if done {
			return p.Document(), d.Finish()
		}
	}
}

// interruptStride matches the store engine's polling granularity.
const interruptStride = 256

// Token delivers one token to every group, and after a start tag reports
// whether every group ignores the element's content. The errors it returns
// end the feed: the interrupt hook's, polled at the first token and every
// interruptStride after it, and in the Execute form the group's own. A
// subscription's failure (error or panic — one poisoned handler must never
// kill the feed's siblings) is recorded on the members it detaches instead.
func (d *Dispatcher) Token(tok *xmlscan.Token) (skipContent bool, err error) {
	if d.env.Interrupt != nil && d.inToks%interruptStride == 0 {
		if err := d.env.Interrupt(); err != nil {
			return false, err
		}
	}
	d.inToks++
	skipContent = true
	for _, r := range d.runners {
		if err := r.Token(tok); err != nil && d.solo {
			return false, err
		}
		skipContent = skipContent && r.ignoring()
	}
	return skipContent, nil
}

// Finish signals end of input to every group; like Token it reports a
// group's error in the Execute form only.
func (d *Dispatcher) Finish() error {
	for _, r := range d.runners {
		if err := r.Finish(); err != nil && d.solo {
			return err
		}
	}
	return nil
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
