package xmlparse

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"

	"xqgo/internal/faultinject"
	"xqgo/internal/projection"
	"xqgo/internal/store"
)

// Stats receives ingestion counters as parsing progresses. All arguments are
// deltas for one parse increment. Calls happen on whichever goroutine drives
// the parse (under the document's frontier lock for lazy parses), one call
// per increment; implementations should be cheap.
type Stats interface {
	OnParse(tokens, nodesBuilt, nodesSkipped, bytes int64)
}

// countingReader counts bytes pulled from the underlying input, giving the
// bytes_parsed_on_demand counter (read-ahead by the tokenizer's internal
// buffer is included — it is demand all the same).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	if err := faultinject.Fire(faultinject.ParserRead); err != nil {
		return 0, err
	}
	if faultinject.Fire(faultinject.FeedTruncate) != nil {
		// Premature end of input: the tokenizer sees EOF mid-document
		// (typically mid-token) and must surface a structured parse error.
		return 0, io.EOF
	}
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Incremental is a resumable parse: tokens are consumed one increment at a
// time, appending to an under-construction store document. The document is
// usable immediately — its accessors drive the parse forward on demand (the
// paper's pull-based, parse-as-far-as-the-query-asks ingestion). With a
// projection in Options, subtrees no query path can touch are skipped:
// tokenized, counted, never materialized.
type Incremental struct {
	b      *store.Builder
	dec    *xml.Decoder
	cr     countingReader
	opts   Options
	doc    *store.Document
	runner *projection.Runner

	depth     int // open materialized elements
	skipDepth int // >0: inside a projection-skipped subtree
	seenRoot  bool
	pendingWS []string

	lastBytes int64 // cr.n at the previous stats flush
}

// ParseIncremental starts an incremental parse of one XML document. The
// returned parse's Document is valid immediately; it fills in as the
// document is navigated (or when Advance/Complete are called).
func ParseIncremental(r io.Reader, opts Options) *Incremental {
	p := &Incremental{
		b: store.NewBuilder(store.BuilderOptions{
			PoolText: opts.PoolText,
			Names:    opts.Names,
			URI:      opts.URI,
		}),
		cr:     countingReader{r: r},
		opts:   opts,
		runner: projection.NewRunner(opts.Projection),
	}
	p.dec = xml.NewDecoder(&p.cr)
	p.dec.Strict = true
	p.b.StartDocument()
	p.doc = store.BeginLazy(p.b, p.advance)
	return p
}

// Document returns the (possibly still in-progress) document.
func (p *Incremental) Document() *store.Document { return p.doc }

// Advance parses one increment; done reports end of input. Equivalent to
// letting an accessor pull, provided for explicit chunked driving.
func (p *Incremental) Advance() (done bool, err error) { return p.doc.Advance() }

// advance consumes one token. It runs under the document's frontier lock —
// it must never call the locking store.Document accessors.
func (p *Incremental) advance() (done bool, err error) {
	tok, err := p.dec.Token()
	if err == io.EOF {
		return true, p.finish()
	}
	if err != nil {
		p.flushStats(1, 0)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// A canceled input context is not a malformed document: pass
			// the cancellation through undressed so callers classify it
			// as such (504, not 422).
			return false, err
		}
		return false, fmt.Errorf("xmlparse: %w", err)
	}
	if ferr := faultinject.Fire(faultinject.StoreAbort); ferr != nil {
		p.flushStats(1, 0)
		return false, ferr
	}
	if p.opts.Tap != nil {
		if terr := p.opts.Tap(tok); terr != nil {
			p.flushStats(1, 0)
			return false, terr
		}
	}

	before := p.b.NodeCount()
	var skipped int64

	switch t := tok.(type) {
	case xml.StartElement:
		if p.skipDepth > 0 {
			p.skipDepth++
			skipped = 1 + int64(countAttrs(t.Attr))
			break
		}
		if p.depth == 0 && p.seenRoot {
			p.flushStats(1, 0)
			return false, fmt.Errorf("xmlparse: multiple root elements")
		}
		p.seenRoot = true
		if p.runner != nil {
			if p.runner.StartElement(t.Name.Space, t.Name.Local) == projection.Skip {
				p.skipDepth = 1
				p.pendingWS = p.pendingWS[:0]
				skipped = 1 + int64(countAttrs(t.Attr))
				break
			}
		}
		p.pendingWS = p.pendingWS[:0] // held only when stripping: dropped at a tag
		if err := StartTag(t, p.b); err != nil {
			p.flushStats(1, 0)
			return false, fmt.Errorf("xmlparse: %w", err)
		}
		p.depth++

	case xml.EndElement:
		if p.skipDepth > 0 {
			p.skipDepth--
			break
		}
		p.pendingWS = p.pendingWS[:0]
		p.b.EndElement()
		if p.runner != nil {
			p.runner.EndElement()
		}
		p.depth--

	case xml.CharData:
		if p.skipDepth > 0 {
			if !IsXMLSpace(t) {
				skipped = 1
			}
			break
		}
		if p.depth == 0 {
			if !IsXMLSpace(t) {
				p.flushStats(1, 0)
				return false, fmt.Errorf("xmlparse: character data outside the root element")
			}
			break
		}
		if p.runner != nil && !p.runner.KeepingContent() {
			// Traversal/empty-target element: its character content is
			// statically unobservable, drop it.
			if !IsXMLSpace(t) {
				skipped = 1
			}
			break
		}
		s := string(t)
		if p.opts.StripWhitespace && IsXMLSpace(s) {
			p.pendingWS = append(p.pendingWS, s)
			break
		}
		p.flushWS()
		p.b.Text(s)

	case xml.Comment:
		if p.skipDepth > 0 {
			skipped = 1
			break
		}
		if p.depth > 0 {
			if p.runner != nil && !p.runner.KeepingContent() {
				skipped = 1
				break
			}
			p.flushWS()
			p.b.Comment(string(t))
		}

	case xml.ProcInst:
		if t.Target == "xml" {
			break // XML declaration
		}
		if p.skipDepth > 0 {
			skipped = 1
			break
		}
		if p.depth > 0 {
			if p.runner != nil && !p.runner.KeepingContent() {
				skipped = 1
				break
			}
			p.flushWS()
			p.b.PI(t.Target, string(t.Inst))
		}

	case xml.Directive:
		// DOCTYPE etc.: accepted and dropped.
	}

	built := int64(p.b.NodeCount() - before)
	bytes := p.bytesDelta()
	if p.opts.Stats != nil {
		p.opts.Stats.OnParse(1, built, skipped, bytes)
	}
	if p.opts.Charge != nil && built > 0 {
		// Store growth this increment retains: node records plus the
		// materialized input bytes (values, names). Skipped subtrees build
		// nothing and are never charged.
		if cerr := p.opts.Charge(built*nodeEstBytes + bytes); cerr != nil {
			return false, cerr
		}
	}
	return false, nil
}

// nodeEstBytes is the charged overhead estimate per store node record
// (the pre-order array slots: kind, name, parent, sibling/child links,
// region labels); text payloads ride on the increment's input bytes.
const nodeEstBytes = 64

// finish validates and finalizes the document at end of input.
func (p *Incremental) finish() error {
	defer p.flushStats(0, 0)
	if p.depth != 0 || p.skipDepth != 0 {
		return fmt.Errorf("xmlparse: unexpected EOF inside element")
	}
	if !p.seenRoot {
		return fmt.Errorf("xmlparse: no root element")
	}
	before := p.b.NodeCount()
	if _, err := p.b.Done(); err != nil {
		return err
	}
	built := int64(p.b.NodeCount() - before)
	if p.opts.Stats != nil {
		p.opts.Stats.OnParse(0, built, 0, 0)
	}
	if p.opts.Charge != nil && built > 0 {
		if cerr := p.opts.Charge(built * nodeEstBytes); cerr != nil {
			return cerr
		}
	}
	return nil
}

func (p *Incremental) flushWS() {
	for _, s := range p.pendingWS {
		p.b.Text(s)
	}
	p.pendingWS = p.pendingWS[:0]
}

func (p *Incremental) flushStats(tokens, skipped int64) {
	if p.opts.Stats != nil {
		p.opts.Stats.OnParse(tokens, 0, skipped, p.bytesDelta())
	}
}

func (p *Incremental) bytesDelta() int64 {
	d := p.cr.n - p.lastBytes
	p.lastBytes = p.cr.n
	return d
}

// countAttrs counts real attributes (namespace declarations excluded — they
// never become nodes).
func countAttrs(attrs []xml.Attr) int {
	n := 0
	for _, a := range attrs {
		if _, ok := nsDecl(a.Name); !ok {
			n++
		}
	}
	return n
}
