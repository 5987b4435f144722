package xmlparse

import (
	"context"
	"errors"
	"fmt"
	"io"

	"xqgo/internal/faultinject"
	"xqgo/internal/projection"
	"xqgo/internal/store"
	"xqgo/internal/xmlscan"
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
// scanned, checked and counted, never materialized.
type Incremental struct {
	b      *store.Builder
	sc     *xmlscan.Scanner
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
	p.sc = xmlscan.New(&p.cr)
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
	tok, err := p.sc.Next()
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
	// Skipped tokens lie inside a subtree that neither the build nor a
	// listener takes: nothing is called for them. After a start tag,
	// listenersSkip says whether every listener ignores the element's content.
	listenersSkip := !tok.Skipped && p.opts.Tap == nil
	if !tok.Skipped {
		if p.opts.Events != nil {
			skip, eerr := p.opts.Events(tok)
			if eerr != nil {
				p.flushStats(1, 0)
				return false, eerr
			}
			listenersSkip = listenersSkip && skip
		}
		if p.opts.Tap != nil {
			if terr := p.opts.Tap(xmlToken(tok)); terr != nil {
				p.flushStats(1, 0)
				return false, terr
			}
		}
	}

	before := p.b.NodeCount()
	var skipped int64

	switch tok.Kind {
	case xmlscan.StartElement:
		if p.skipDepth > 0 {
			p.skipDepth++
			skipped = 1 + int64(tok.NumAttr)
			break
		}
		if p.depth == 0 && p.seenRoot {
			p.flushStats(1, 0)
			return false, fmt.Errorf("xmlparse: multiple root elements")
		}
		p.seenRoot = true
		if p.runner != nil {
			if p.runner.StartElement(tok.Name.Space, tok.Name.Local) == projection.Skip {
				p.skipDepth = 1
				p.pendingWS = p.pendingWS[:0]
				skipped = 1 + int64(tok.NumAttr)
				break
			}
		}
		p.pendingWS = p.pendingWS[:0] // held only when stripping: dropped at a tag
		if err := StartTag(tok, p.b); err != nil {
			p.flushStats(1, 0)
			return false, fmt.Errorf("xmlparse: %w", err)
		}
		p.depth++

	case xmlscan.EndElement:
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

	case xmlscan.Text:
		if p.skipDepth > 0 {
			if !tok.Whitespace {
				skipped = 1
			}
			break
		}
		if p.depth == 0 {
			if !tok.Whitespace {
				p.flushStats(1, 0)
				return false, fmt.Errorf("xmlparse: character data outside the root element")
			}
			break
		}
		if p.runner != nil && !p.runner.KeepingContent() {
			// Traversal/empty-target element: its character content is
			// statically unobservable, drop it.
			if !tok.Whitespace {
				skipped = 1
			}
			break
		}
		s := string(tok.Data)
		if p.opts.StripWhitespace && tok.Whitespace {
			p.pendingWS = append(p.pendingWS, s)
			break
		}
		p.flushWS()
		p.b.Text(s)

	case xmlscan.Comment:
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
			p.b.Comment(string(tok.Data))
		}

	case xmlscan.ProcInst:
		if tok.Name.Local == "xml" {
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
			p.b.PI(tok.Name.Local, string(tok.Data))
		}

	case xmlscan.Directive:
		// DOCTYPE etc.: accepted and dropped.
	}
	if p.skipDepth > 0 && listenersSkip {
		p.sc.Skip() // a no-op unless tok is a start tag
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
