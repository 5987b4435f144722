package xqgo_test

// End-to-end tests of lazy streaming ingestion with static path projection:
// time-to-first-answer over a pipe, projection on/off across the
// paper-query shapes, and the materialization budget on a multi-megabyte
// document.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqgo"
	"xqgo/internal/workload"
)

// signalWriter closes signal on the first written byte.
type signalWriter struct {
	w      io.Writer
	signal chan struct{}
	once   sync.Once
}

func (s *signalWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		s.once.Do(func() { close(s.signal) })
	}
	return s.w.Write(p)
}

// TestStreamingFirstOutputBeforeEOF is the acceptance test for pipelined
// ingestion: Execute over an io.Pipe must produce output while the producer
// still holds the write end open. The producer only finishes the document
// after observing the first output byte — if the engine needed EOF before
// emitting, the test would time out instead of passing vacuously. Besides
// plain child steps, a predicate and a where clause that compare against a
// literal must keep that demand.
func TestStreamingFirstOutputBeforeEOF(t *testing.T) {
	for _, src := range []string{
		`/bib/book/title`,
		`/bib/book[price = "9"]/title`,
		`for $b in /bib/book where $b/price eq "9" return $b/title`,
	} {
		t.Run(src, func(t *testing.T) { firstOutputBeforeEOF(t, src) })
	}
}

func firstOutputBeforeEOF(t *testing.T, src string) {
	pr, pw := io.Pipe()
	firstByte := make(chan struct{})
	var firstBeforeEOF atomic.Bool

	const preGate, postGate = 400, 10
	go func() {
		write := func(s string) {
			if _, err := io.WriteString(pw, s); err != nil {
				pw.CloseWithError(err)
			}
		}
		write("<bib>")
		for i := 0; i < preGate; i++ {
			write(fmt.Sprintf("<book><title>Book %d</title><price>9</price></book>", i))
		}
		select {
		case <-firstByte:
			firstBeforeEOF.Store(true)
		case <-time.After(30 * time.Second):
			// Fall through and finish the document so Execute can return and
			// the test can fail with a useful message instead of deadlocking.
		}
		for i := 0; i < postGate; i++ {
			write(fmt.Sprintf("<book><title>Late %d</title><price>9</price></book>", i))
		}
		write("</bib>")
		pw.Close()
	}()

	q := xqgo.MustCompile(src, nil)
	ctx := xqgo.NewContext().WithStreamingInput(pr, "stream.xml")
	var out bytes.Buffer
	if err := q.Execute(ctx, &signalWriter{w: &out, signal: firstByte}); err != nil {
		t.Fatal(err)
	}
	if !firstBeforeEOF.Load() {
		t.Fatal("no output was produced before the input reached EOF")
	}
	if got := strings.Count(out.String(), "<title>"); got != preGate+postGate {
		t.Errorf("result has %d titles, want %d", got, preGate+postGate)
	}
	if !strings.Contains(out.String(), "<title>Late 9</title>") {
		t.Error("post-gate content missing from the result")
	}
}

// streamRun executes src over a streamed copy of xml and returns the
// serialized output, the error, and the ingestion counters.
func streamRun(t *testing.T, src, xml string, disableProjection bool) (string, error, xqgo.EngineCounters) {
	t.Helper()
	q, err := xqgo.Compile(src, &xqgo.Options{DisableProjection: disableProjection})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	prof := q.NewCountersProfile()
	ctx := xqgo.NewContext().
		WithStreamingInput(strings.NewReader(xml), "stream.xml").
		WithProfile(prof)
	var out bytes.Buffer
	execErr := q.Execute(ctx, &out)
	return out.String(), execErr, prof.Report().Counters
}

// TestProjectionDifferential: the paper-query shapes over a streamed
// document with projection on and off give the reference's bytes and
// codes, and the selective queries skip nodes.
func TestProjectionDifferential(t *testing.T) { oracle(t, projectionRows, xqgo.Options{}, axInput) }

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}

// TestProjectionMaterializationBudget is the acceptance criterion: on a
// >=10 MB document and a query selecting a small fraction of it, projected
// ingestion must materialize at most 25% of the nodes a full parse does,
// with byte-identical output.
func TestProjectionMaterializationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megabyte parse")
	}
	xml := workload.DocToXML(workload.Bib(workload.BibConfig{Books: 46000, Seed: 3}))
	if len(xml) < 10<<20 {
		t.Fatalf("generated document is %d bytes, want >= 10 MiB", len(xml))
	}
	const query = `/bib/book[@year = "1994"]/title`

	fullOut, fullErr, fullC := streamRun(t, query, xml, true)
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	projOut, projErr, projC := streamRun(t, query, xml, false)
	if projErr != nil {
		t.Fatal(projErr)
	}
	if projOut != fullOut {
		t.Fatal("projected output differs from full-parse output")
	}
	if projOut == "" || !strings.Contains(projOut, "<title>") {
		t.Fatalf("suspicious empty result: %q", clip(projOut))
	}
	if fullC.DocNodesBuilt == 0 || projC.DocNodesBuilt == 0 {
		t.Fatalf("counters missing: full %d proj %d", fullC.DocNodesBuilt, projC.DocNodesBuilt)
	}
	limit := fullC.DocNodesBuilt / 4
	if projC.DocNodesBuilt > limit {
		t.Errorf("projection materialized %d nodes, budget is 25%% of %d (= %d)",
			projC.DocNodesBuilt, fullC.DocNodesBuilt, limit)
	}
	if projC.NodesSkipped == 0 {
		t.Error("projection skipped no nodes")
	}
	if projC.BytesParsedOnDemand < int64(len(xml)) {
		t.Errorf("projected run pulled %d bytes of %d; skipped subtrees still cost tokenization",
			projC.BytesParsedOnDemand, len(xml))
	}
}

// TestStreamingEngineCountersInProfile checks that ingestion counters flow
// into the public profile report (and from there to EXPLAIN and /metrics).
func TestStreamingEngineCountersInProfile(t *testing.T) {
	xml := workload.DocToXML(workload.Bib(workload.BibConfig{Books: 100, Seed: 5}))
	out, err, c := streamRun(t, `/bib/book/title`, xml, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<title>") {
		t.Fatalf("no titles in %q", clip(out))
	}
	if c.DocNodesBuilt == 0 || c.NodesSkipped == 0 || c.BytesParsedOnDemand != int64(len(xml)) {
		t.Errorf("counters = built %d skipped %d bytes %d (doc is %d bytes)",
			c.DocNodesBuilt, c.NodesSkipped, c.BytesParsedOnDemand, len(xml))
	}
}
