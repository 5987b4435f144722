package xqgo_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

func ordersXML(lines int) string {
	return workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 3, Seed: 1}))
}

// storedExecute is the oracle: regular engine over a materialized document.
func storedExecute(t *testing.T, src, doc string) string {
	t.Helper()
	q := xqgo.MustCompile(src, nil)
	d, err := xqgo.ParseString(doc, "mem:feed")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Execute(xqgo.NewContext().WithContextNode(d), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStreamModeMatchesStoreEngine: the event-driven evaluator, the lazy
// streamed parse with and without projection, and the store engine agree,
// and each plan has the class and the window counters it is pinned to.
func TestStreamModeMatchesStoreEngine(t *testing.T) { oracle(t, streamRows, xqgo.Options{}, axInput) }

// trackingReader records how many input bytes have been consumed.
type trackingReader struct {
	r io.Reader
	n int64
}

func (tr *trackingReader) Read(p []byte) (int, error) {
	n, err := tr.r.Read(p)
	tr.n += int64(n)
	return n, err
}

// firstWriteWriter snapshots a counter at the first write.
type firstWriteWriter struct {
	onFirst func()
	wrote   bool
	io.Writer
}

func (fw *firstWriteWriter) Write(p []byte) (int, error) {
	if !fw.wrote && len(p) > 0 {
		fw.wrote = true
		fw.onFirst()
	}
	return fw.Writer.Write(p)
}

// TestStreamModeIsIncremental proves results are emitted before the input
// is fully consumed: the first output byte must appear while most of the
// feed is still unread. This is the deterministic form of the
// time-to-first-byte acceptance criterion (the timed form is `ttfb_p50_ms` on
// `stream-feed`).
func TestStreamModeIsIncremental(t *testing.T) {
	doc := ordersXML(5000)
	q := xqgo.MustCompile(`/Order/OrderLine[SellersID = "1"]/Item/ID`, nil)

	tr := &trackingReader{r: strings.NewReader(doc)}
	var consumedAtFirst int64 = -1
	var buf bytes.Buffer
	fw := &firstWriteWriter{Writer: &buf, onFirst: func() { consumedAtFirst = tr.n }}

	ctx := xqgo.NewContext().WithStreamingInput(tr, "mem:feed").WithStreamMode(true)
	if err := q.Execute(ctx, fw); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	if consumedAtFirst < 0 {
		t.Fatal("first-write hook never fired")
	}
	if consumedAtFirst > int64(len(doc))/2 {
		t.Fatalf("first output after %d of %d input bytes — not incremental",
			consumedAtFirst, len(doc))
	}
}

func TestSubscriberSinglePassFanOut(t *testing.T) {
	doc := ordersXML(300)

	identity := xqgo.MustCompile(`/Order/OrderLine/Item/ID`, nil)
	filtered := xqgo.MustCompile(`/Order/OrderLine[SellersID = "1"]`, nil)
	stored := xqgo.MustCompile(`count(/Order/OrderLine)`, nil) // falls back

	var ids, lines, counts []string
	collect := func(dst *[]string) func([]byte) error {
		return func(x []byte) error { *dst = append(*dst, string(x)); return nil }
	}

	sub := xqgo.NewSubscriber()
	s1 := sub.Subscribe(identity, collect(&ids))
	s2 := sub.Subscribe(filtered, collect(&lines))
	s3 := sub.Subscribe(stored, collect(&counts))

	if err := sub.Run(context.Background(), strings.NewReader(doc), "mem:feed"); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*xqgo.Subscription{s1, s2, s3} {
		if err := s.Err(); err != nil {
			t.Fatalf("subscription %d: %v", i+1, err)
		}
	}

	if want := storedExecute(t, `count(/Order/OrderLine)`, doc); len(counts) != 1 || counts[0] != want {
		t.Fatalf("fallback sub: %q, want [%q]", counts, want)
	}
	if len(ids) != 300 {
		t.Fatalf("identity sub delivered %d results, want 300", len(ids))
	}
	wantLines := storedExecute(t, `/Order/OrderLine[SellersID = "1"]`, doc)
	if got := strings.Join(lines, ""); got != wantLines {
		t.Fatalf("filtered sub concatenation mismatch:\n got:  %.200q\n want: %.200q", got, wantLines)
	}

	if st := s1.Stats(); st.Class != "fully-streamable" || st.Results != 300 {
		t.Fatalf("s1 stats = %+v", st)
	}
	if st := s2.Stats(); st.Class != "bounded-buffers" || st.PeakBufferBytes == 0 {
		t.Fatalf("s2 stats = %+v", st)
	}
	if st := s3.Stats(); !st.FellBack || st.Results != 1 {
		t.Fatalf("s3 stats = %+v", st)
	}
}

func TestSubscriptionCloseMidFeed(t *testing.T) {
	doc := ordersXML(200)
	q := xqgo.MustCompile(`/Order/OrderLine`, nil)

	sub := xqgo.NewSubscriber()
	var n int
	var handle *xqgo.Subscription
	handle = sub.Subscribe(q, func([]byte) error {
		n++
		if n == 5 {
			handle.Close()
		}
		return nil
	})
	if err := sub.Run(context.Background(), strings.NewReader(doc), "mem:feed"); err != nil {
		t.Fatal(err)
	}
	if n < 5 || n > 6 {
		t.Fatalf("delivered %d results after Close at 5", n)
	}
	if err := handle.Err(); err != nil {
		t.Fatalf("close must not record an error, got %v", err)
	}
}

func TestSubscriberDeliveryErrorIsolated(t *testing.T) {
	doc := ordersXML(50)
	qa := xqgo.MustCompile(`/Order/OrderLine/Item/ID`, nil)
	qb := xqgo.MustCompile(`/Order/OrderLine`, nil)

	boom := fmt.Errorf("client went away")
	sub := xqgo.NewSubscriber()
	bad := sub.Subscribe(qa, func([]byte) error { return boom })
	var n int
	good := sub.Subscribe(qb, func([]byte) error { n++; return nil })

	if err := sub.Run(context.Background(), strings.NewReader(doc), "mem:feed"); err != nil {
		t.Fatal(err)
	}
	if bad.Err() == nil {
		t.Fatal("failing subscription should record its error")
	}
	if good.Err() != nil || n != 50 {
		t.Fatalf("healthy subscription: err=%v results=%d, want nil/50", good.Err(), n)
	}
}
