package xqparse

import (
	"bufio"
	"os"
	"testing"
)

// FuzzQueryParse feeds arbitrary source text to the query parser. The parser
// must reject garbage with an error — never a panic — and accepting an input
// must be deterministic across parses. Its seeds, one query a line, seed the
// root package's FuzzDemand too.
func FuzzQueryParse(f *testing.F) {
	seeds, err := os.Open("testdata/seed_queries.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(``)
	sc := bufio.NewScanner(seeds)
	for sc.Scan() {
		f.Add(sc.Text())
	}
	seeds.Close()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		q, err := Parse(src)
		q2, err2 := Parse(src)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic parse: first err = %v, second err = %v", err, err2)
		}
		if err == nil && (q == nil || q2 == nil) {
			t.Fatal("nil query with nil error")
		}
	})
}
