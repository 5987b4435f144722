package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xqgo/internal/xmlscan"
)

// runBody executes query over an XML request body, in store mode or in
// stream mode, and returns the serialized result.
func runBody(s *Service, query, body string, stream bool) (string, error) {
	var out strings.Builder
	_, _, err := s.Execute(context.Background(), Request{
		Query: query, Body: strings.NewReader(body), StreamMode: stream,
	}, &out)
	return out.String(), err
}

// TestScannerWellFormedness pins the documents the XML scanner judges, through
// the whole service in store mode and in stream mode: one answer per
// document whatever the query projects, the written prefix kept, and
// attribute values normalized.
func TestScannerWellFormedness(t *testing.T) {
	s := New(Config{})
	for _, c := range []struct {
		body, query string
		want        string // the result, when the document is accepted
		reason      error  // the typed rejection, when it is not
	}{
		// Namespaces in XML 1.0 §5: a prefix must be declared.
		{body: `<a><p:b/></a>`, query: `namespace-uri(/a/*)`, reason: xmlscan.ErrUndeclaredPrefix},
		{body: `<a><p:b/></a>`, query: `count(/a)`, reason: xmlscan.ErrUndeclaredPrefix},
		{body: `<a p:x="1"/>`, query: `count(/a)`, reason: xmlscan.ErrUndeclaredPrefix},
		{body: `<a xmlns:p=""><p:b/></a>`, query: `count(/a)`, reason: xmlscan.ErrUndeclaredPrefix},
		// Names on either side of the colon are NCNames.
		{body: `<p:0 xmlns:p="u"/>`, query: `count(/*)`, reason: xmlscan.ErrNotNCName},
		{body: `<a xmlns:0="u"/>`, query: `count(/*)`, reason: xmlscan.ErrNotNCName},
		{body: `<:a/>`, query: `count(/*)`, reason: xmlscan.ErrNotNCName},
		// The written prefix is kept.
		{body: `<p:r xmlns:p="urn:x"/>`, query: `name(/*)`, want: `p:r`},
		{body: `<r xmlns="urn:x"><b/></r>`, query: `name(/*/*)`, want: `b`},
		{body: `<p:r xmlns:p="urn:x"><p:b/></p:r>`, query: `/*/*`, want: `<p:b xmlns:p="urn:x"/>`},
		{body: `<p:r xmlns:p="urn:x"/>`, query: `string(node-name(/*))`, want: `p:r`},
		// XML 1.0 §3.1 "Unique Att Spec", on expanded names (Namespaces §6.3),
		// whichever element the query reaches.
		{body: `<r><s/><a x="1" x="2"/></r>`, query: `count(/r/s)`, reason: xmlscan.ErrDuplicateAttr},
		{body: `<r><s/><a x="1" x="2"/></r>`, query: `count(/r/a)`, reason: xmlscan.ErrDuplicateAttr},
		{body: `<r xmlns:p="u" xmlns:q="u"><s/><a p:x="1" q:x="2"/></r>`, query: `count(/r/s)`, reason: xmlscan.ErrDuplicateAttr},
		{body: `<r xmlns:p="u" xmlns:q="v"><a p:x="1" q:x="2"/></r>`, query: `count(/r/a/@*)`, want: `2`},
		// XML 1.0 §3.3.3: a literal tab, line feed or CR LF in an attribute
		// value is a space; a character reference stays as written.
		{body: "<a b=\"x\ty\nz\"/>", query: `string-to-codepoints(string(/a/@b))`, want: `120 32 121 32 122`},
		{body: `<a b="x&#9;y&#10;z"/>`, query: `string-to-codepoints(string(/a/@b))`, want: `120 9 121 10 122`},
		{body: "<a b=\"x\r\ny\"/>", query: `string-to-codepoints(string(/a/@b))`, want: `120 32 121`},
	} {
		for _, stream := range []bool{false, true} {
			got, err := runBody(s, c.query, c.body, stream)
			switch {
			case c.reason != nil && !errors.Is(err, c.reason):
				t.Errorf("%q over %q (stream %v): got %q, %v; want the error %v", c.query, c.body, stream, got, err, c.reason)
			case c.reason == nil && (err != nil || got != c.want):
				t.Errorf("%q over %q (stream %v): got %q, %v; want %q", c.query, c.body, stream, got, err, c.want)
			}
		}
	}
}
