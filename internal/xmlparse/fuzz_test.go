package xmlparse

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"xqgo/internal/xmlscan"
)

// seedCorpus adds the repo's seed documents plus a few hand-picked edge
// cases to a fuzz target.
func seedCorpus(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "seed_*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		``,
		`<a/>`,
		`<a>text</a>`,
		`<a><b k="v"/>tail</a>`,
		`<a xmlns:p="u"><p:b/></a>`,
		`<a><!-- c --><?pi d?><![CDATA[x]]></a>`,
		`<a>&lt;&amp;&#65;</a>`,
		`<a><b></a></b>`,  // mismatched tags
		`<a`,              // truncated
		`<a>&bogus;</a>`,  // undefined entity
		"<a>\xff\xfe</a>", // invalid UTF-8
		"<r/>\u00a0",      // a Unicode space is character data, not ignorable whitespace
		"<r>&#160;<b/></r>",
		`<a><p:b/></a>`,      // undeclared prefix
		`<p:0 xmlns:p="u"/>`, // a local part that is no NCName
		`<a xmlns:0="u"/>`,   // a declared prefix that is no NCName
		`<p:r xmlns:p="urn:x"><p:b/></p:r>`,
		`<r xmlns="urn:x"><b/></r>`,
		`<r><s/><a x="1" x="2"/></r>`, // duplicate attribute
		`<r xmlns:p="u" xmlns:q="u"><a p:x="1" q:x="2"/></r>`, // duplicate expanded name
		"<a b=\"x\ty\nz\"/>", // attribute-value normalization
		`<a b="x&#9;y&#10;z"/>`,
		"<a b=\"x\r\ny\"/>",
		`<!DOCTYPE a [<!ENTITY e "v"><!-- c -->]><a/>`,
		`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	} {
		f.Add([]byte(s))
	}
}

// oracleParse tokenizes data with encoding/xml (Strict), held to the
// document rules xmlparse adds (one root element, no character data outside
// it), and returns the signature of its tokens. encoding/xml leaves an
// element named xmlns out of the default namespace (it reads the name as a
// declaration); the oracle puts it back.
func oracleParse(data []byte) (string, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	dec.Strict = true
	sig := &tokenSignature{foldAttrSpace: true}
	defaults := []string{""}
	seenRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		depth := len(defaults) - 1
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 && seenRoot {
				return "", errors.New("multiple root elements")
			}
			seenRoot = true
			def := defaults[depth]
			for _, a := range t.Attr {
				if a.Name.Space == "" && a.Name.Local == "xmlns" {
					def = a.Value
				}
			}
			defaults = append(defaults, def)
			if t.Name.Space == "" && t.Name.Local == "xmlns" {
				t.Name.Space = def
			}
			tok = t
		case xml.EndElement:
			if t.Name.Space == "" && t.Name.Local == "xmlns" {
				t.Name.Space = defaults[depth]
			}
			defaults = defaults[:depth]
			tok = t
		case xml.CharData:
			if depth == 0 && len(bytes.Trim(t, " \t\r\n")) > 0 {
				return "", errors.New("character data outside the root element")
			}
		}
		if err := sig.add(tok); err != nil {
			return "", err
		}
	}
	if !seenRoot {
		return "", errors.New("no root element")
	}
	return sig.String(), nil
}

// namespaceReason reports whether err rejects a document for a Namespaces
// constraint encoding/xml does not check.
func namespaceReason(err error) bool {
	return errors.Is(err, xmlscan.ErrUndeclaredPrefix) || errors.Is(err, xmlscan.ErrNotNCName) ||
		errors.Is(err, xmlscan.ErrDuplicateAttr)
}

// FuzzParseIncremental is a three-way differential over arbitrary bytes: the
// incremental parser, the eager entry point and encoding/xml. The two entry
// points must accept or reject every input alike and build the same number
// of nodes. encoding/xml must accept the same inputs and tap the same tokens,
// except that the scanner alone rejects an undeclared prefix, a name that is
// no NCName and a duplicate expanded attribute name.
func FuzzParseIncremental(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		sig := &tokenSignature{foldAttrSpace: true}
		p := ParseIncremental(bytes.NewReader(data), Options{URI: "fuzz:doc", Tap: sig.add})
		var incErr error
		for {
			done, err := p.Advance()
			if err != nil {
				incErr = err
				break
			}
			if done {
				break
			}
		}
		eager, eagerErr := Parse(bytes.NewReader(data), Options{URI: "fuzz:doc"})
		if (incErr == nil) != (eagerErr == nil) {
			t.Fatalf("incremental err = %v, eager err = %v: the two entry points disagree", incErr, eagerErr)
		}
		want, oracleErr := oracleParse(data)
		switch {
		case incErr == nil && oracleErr != nil:
			t.Fatalf("the scanner accepts what encoding/xml rejects: %v", oracleErr)
		case incErr != nil && oracleErr == nil && !namespaceReason(incErr):
			t.Fatalf("the scanner rejects what encoding/xml accepts: %v", incErr)
		case incErr != nil:
			return
		}
		// Both accepted: the stores must describe the same tree, and the
		// scanner must have tapped encoding/xml's tokens.
		if got, want := p.Document().NumNodes(), eager.NumNodes(); got != want {
			t.Fatalf("incremental built %d nodes, eager built %d", got, want)
		}
		if got := sig.String(); got != want {
			t.Fatalf("token streams differ\nscanner:\n%s\nencoding/xml:\n%s", got, want)
		}
	})
}

// TestSeedCorpusOracle runs the differential's seeds as a plain test, so the
// accepted seeds are compared with encoding/xml on every test run.
func TestSeedCorpusOracle(t *testing.T) {
	for _, s := range []string{boundaryDoc, `<a b="x&#9;y"/>`, `<a xmlns="u"><xmlns/></a>`} {
		sig := &tokenSignature{foldAttrSpace: true}
		if _, err := Parse(bytes.NewReader([]byte(s)), Options{Tap: sig.add}); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		want, err := oracleParse([]byte(s))
		if err != nil {
			t.Fatalf("%q: encoding/xml: %v", s, err)
		}
		if got := sig.String(); got != want {
			t.Errorf("%q: token streams differ\nscanner:\n%s\nencoding/xml:\n%s", s, got, want)
		}
	}
}
