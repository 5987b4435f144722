package serializer_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"xqgo/internal/serializer"
	"xqgo/internal/store"
	"xqgo/internal/xmlparse"
)

// FuzzSerialize round-trips every parseable input through the production
// writer (the one Execute, xqd and /subscribe run): serialize the parsed
// document, re-parse the output. The writer must never panic, and whatever it
// emits for a well-formed document must be well-formed XML that parses back
// to a deep-equal document: the same nodes with the same expanded names,
// attribute values and text. Seeds under testdata/fuzz/FuzzSerialize are the
// inputs on which the module's former serializers disagreed.
func FuzzSerialize(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "seed_*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range []string{
		`<a/>`,
		`<a k="&quot;&lt;">x &amp; y</a>`,
		`<a xmlns="urn:d" xmlns:p="urn:p"><p:b p:k="v"/></a>`,
		`<a><!--c--><?pi d?><![CDATA[<raw>]]></a>`,
		"<a>\t\n mixed <b/> tail </a>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<20 {
			t.Skip("oversized input")
		}
		doc, err := xmlparse.ParseString(src, xmlparse.Options{URI: "fuzz:doc"})
		if err != nil {
			t.Skip("not well-formed")
		}
		if !ncNames(doc) {
			// encoding/xml checks a QName as one name, so it lets through
			// halves that cannot stand alone ("p:0", "p:a:b", xmlns:0), and
			// the writer is free to move a prefix or a local part.
			t.Skip("a local name or prefix is no NCName")
		}
		out, err := serializer.NodeToString(doc.RootNode())
		if err != nil {
			t.Fatalf("serializing a parsed document: %v", err)
		}
		re, err := xmlparse.ParseString(out, xmlparse.Options{URI: "fuzz:redoc"})
		if err != nil {
			t.Fatalf("serializer emitted ill-formed XML: %v\ninput: %q\noutput: %q", err, src, out)
		}
		if diff := treeDiff(doc, re); diff != "" {
			t.Fatalf("round trip changed the document: %s\ninput: %q\noutput: %q", diff, src, out)
		}
	})
}

// treeDiff compares two parsed documents node by node in document order
// (the store's id order), naming the first difference.
func treeDiff(a, b *store.Document) string {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Sprintf("%d nodes became %d", a.NumNodes(), b.NumNodes())
	}
	for id := int32(0); id < int32(a.NumNodes()); id++ {
		if a.Kind(id) != b.Kind(id) || !a.ExpandedName(id).Equal(b.ExpandedName(id)) || a.Value(id) != b.Value(id) {
			return fmt.Sprintf("node %d: %v %s %q became %v %s %q", id,
				a.Kind(id), a.ExpandedName(id).Clark(), a.Value(id), b.Kind(id), b.ExpandedName(id).Clark(), b.Value(id))
		}
	}
	return ""
}

func ncNames(d *store.Document) bool {
	ok := func(name string) bool {
		first, _ := utf8.DecodeRuneInString(name)
		return name == "" || (unicode.IsLetter(first) || first == '_') && !strings.Contains(name, ":")
	}
	for id := int32(0); id < int32(d.NumNodes()); id++ {
		if !ok(d.ExpandedName(id).Local) {
			return false
		}
	}
	for _, ns := range d.NS {
		if !ok(ns.Prefix) {
			return false
		}
	}
	return true
}
