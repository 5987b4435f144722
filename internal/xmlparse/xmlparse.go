// Package xmlparse parses well-formed XML into store documents. It uses the
// standard library tokenizer (encoding/xml) for the lexical layer and builds
// the array representation in a single pass, so parsing is itself a
// streaming operation.
package xmlparse

import (
	"encoding/xml"
	"io"
	"strings"

	"xqgo/internal/projection"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
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
	// Tap, when non-nil, observes every decoded token in document order,
	// before whitespace stripping, projection skipping or materialization
	// (the streamexec event bus: one parse pass can feed the store builder
	// and any number of event-handler automata). A non-nil error aborts the
	// parse with it. Token payloads ([]byte of CharData etc.) are only valid
	// for the duration of the call.
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

// IsXMLSpace reports whether s consists only of XML whitespace (production
// S: space, tab, carriage return, line feed), the empty string included.
// Unicode spaces such as U+00A0 or U+2003 are ordinary character data to XML,
// which is why strings.TrimSpace must not classify text here or in the
// streaming evaluator.
func IsXMLSpace[T ~string | ~[]byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// StartSink receives the parts of one start tag, in the order a scan of the
// stored element yields them: the name, its namespace declarations, then its
// attributes. *store.Builder is one.
type StartSink interface {
	StartElement(name xdm.QName)
	NSDecl(prefix, uri string)
	Attr(name xdm.QName, value string) error
}

// StartTag is the one translation of a decoder start tag: the document build,
// the streaming evaluator's window arena and its token forwarder all receive
// their elements through it.
func StartTag(t xml.StartElement, sink StartSink) error {
	sink.StartElement(convName(t.Name))
	for _, a := range t.Attr {
		if prefix, ok := nsDecl(a.Name); ok {
			sink.NSDecl(prefix, a.Value)
		}
	}
	for _, a := range t.Attr {
		if _, ok := nsDecl(a.Name); ok {
			continue
		}
		if err := sink.Attr(convName(a.Name), a.Value); err != nil {
			return err
		}
	}
	return nil
}

// nsDecl reports whether an attribute name is a namespace declaration
// (xmlns:p="…" or xmlns="…"), and the prefix it binds.
func nsDecl(n xml.Name) (prefix string, ok bool) {
	switch {
	case n.Space == "xmlns":
		return n.Local, true
	case n.Space == "" && n.Local == "xmlns":
		return "", true
	}
	return "", false
}

// convName converts an encoding/xml name (Space = resolved URI) to a QName.
// encoding/xml loses the original prefix; the serializer re-derives one from
// the namespace declarations.
func convName(n xml.Name) xdm.QName {
	return xdm.QName{Space: n.Space, Local: n.Local}
}
