// Package xmlparse parses well-formed XML into store documents. It drives
// the internal/xmlscan tokenizer and builds the array representation in the
// same pass, so parsing is itself a streaming operation.
package xmlparse

import (
	"encoding/xml"
	"io"
	"strings"

	"xqgo/internal/projection"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlscan"
)

// Options configure parsing.
type Options struct {
	// URI is recorded as the document/base URI.
	URI string
	// PoolText enables text-value pooling in the store.
	PoolText bool
	// Names optionally shares a name pool across documents.
	Names *store.NamePool
	// StripWhitespace drops text nodes that consist only of XML whitespace
	// and have element siblings ("ignorable whitespace"); off by default.
	StripWhitespace bool
	// Projection, when projectable, lets the parser skip subtrees no query
	// path can touch (see internal/projection). Skipped subtrees are
	// tokenized but never materialized.
	Projection *projection.Paths
	// Stats, when non-nil, receives ingestion counter deltas.
	Stats Stats
	// Events, when non-nil, receives every scanned token in document order,
	// before whitespace stripping, projection skipping or materialization
	// (the streamexec event bus: one parse pass can feed the store builder
	// and any number of event-handler automata). After a start tag it says
	// whether it ignores the element's content; when the build skips that
	// content too, the scanner checks it without delivering it. A non-nil
	// error aborts the parse with it. Token payloads are only valid for the
	// duration of the call.
	Events func(t *xmlscan.Token) (skipContent bool, err error)
	// Tap is Events for encoding/xml tokens, converted per token, for callers
	// that compile against that type. It never skips.
	Tap func(xml.Token) error
	// Charge, when non-nil, is called with a byte estimate of the store
	// growth each increment retains (node records plus materialized input
	// bytes). A non-nil return aborts the parse with it — this is how a
	// per-query memory budget stops a hostile document before it OOMs the
	// process (see internal/limits).
	Charge func(bytes int64) error
}

// Parse reads one XML document from r, eagerly: the incremental machinery
// driven to completion in one shot.
func Parse(r io.Reader, opts Options) (*store.Document, error) {
	doc := ParseIncremental(r, opts).Document()
	if err := doc.Complete(); err != nil {
		return nil, err
	}
	return doc, nil
}

// ParseString parses a document held in a string.
func ParseString(s string, opts Options) (*store.Document, error) {
	return Parse(strings.NewReader(s), opts)
}

// StartSink receives the parts of one start tag, in the order a scan of the
// stored element yields them: the name, its namespace declarations, then its
// attributes. *store.Builder is one.
type StartSink interface {
	StartElement(name xdm.QName)
	NSDecl(prefix, uri string)
	Attr(name xdm.QName, value string) error
}

// StartTag is the one translation of a scanned start tag: the document
// build, the streaming evaluator's window arena and its token forwarder all
// receive their elements through it. Names arrive interned; an attribute
// value becomes a string here, where a sink keeps it.
func StartTag(t *xmlscan.Token, sink StartSink) error {
	sink.StartElement(qname(t.Name))
	for i := range t.Attr {
		if a := &t.Attr[i]; a.NS {
			sink.NSDecl(a.Name.Local, a.Name.Space)
		}
	}
	for i := range t.Attr {
		if a := &t.Attr[i]; !a.NS {
			if err := sink.Attr(qname(a.Name), string(a.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func qname(n xmlscan.Name) xdm.QName {
	return xdm.QName{Space: n.Space, Local: n.Local, Prefix: n.Prefix}
}

// xmlToken renders a scanned token as the encoding/xml token the Tap
// adapter hands on: names resolved, a namespace declaration named xmlns:p
// (Space "xmlns") or xmlns, payloads borrowed from the scanner.
func xmlToken(t *xmlscan.Token) xml.Token {
	switch t.Kind {
	case xmlscan.StartElement:
		se := xml.StartElement{Name: xml.Name{Space: t.Name.Space, Local: t.Name.Local}, Attr: make([]xml.Attr, len(t.Attr))}
		for i, a := range t.Attr {
			n := xml.Name{Space: a.Name.Space, Local: a.Name.Local}
			switch {
			case a.NS && a.Name.Local == "":
				n = xml.Name{Local: "xmlns"}
			case a.NS:
				n = xml.Name{Space: "xmlns", Local: a.Name.Local}
			}
			se.Attr[i] = xml.Attr{Name: n, Value: string(a.Value)}
		}
		return se
	case xmlscan.EndElement:
		return xml.EndElement{Name: xml.Name{Space: t.Name.Space, Local: t.Name.Local}}
	case xmlscan.Text:
		return xml.CharData(t.Data)
	case xmlscan.Comment:
		return xml.Comment(t.Data)
	case xmlscan.ProcInst:
		return xml.ProcInst{Target: t.Name.Local, Inst: t.Data}
	}
	return xml.Directive(t.Data)
}
