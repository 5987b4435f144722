package xmlparse

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
	} {
		f.Add([]byte(s))
	}
}

// FuzzParseIncremental drives arbitrary bytes through the incremental
// parser, asserting it never panics and agrees with the eager entry point:
// both must accept or both must reject every input.
func FuzzParseIncremental(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		p := ParseIncremental(bytes.NewReader(data), Options{URI: "fuzz:doc"})
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
		if incErr != nil {
			return
		}
		// Both accepted: the stores must describe the same tree.
		if got, want := p.Document().NumNodes(), eager.NumNodes(); got != want {
			t.Fatalf("incremental built %d nodes, eager built %d", got, want)
		}
	})
}
