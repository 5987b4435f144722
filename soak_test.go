package xqgo_test

import (
	"context"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"xqgo"
	"xqgo/internal/ctxio"
	"xqgo/internal/leakcheck"
)

// endlessOrders is an Order feed that goes on for as long as anyone reads:
// the root stays open and one more OrderLine follows, until stop is set, when
// it closes the root after the line in progress and ends.
type endlessOrders struct {
	stop atomic.Bool
	rest []byte // unread part of the piece being sent
	done bool   // the closing tag has been queued
}

const soakLine = `<OrderLine><Item><ID>7</ID><a><b><ID>42</ID></b></a></Item></OrderLine>`

func (r *endlessOrders) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		switch {
		case r.done:
			return 0, io.EOF
		case r.rest == nil:
			r.rest = []byte(`<Order>` + soakLine)
		case r.stop.Load():
			r.rest, r.done = []byte(`</Order>`), true
		default:
			r.rest = []byte(soakLine)
		}
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// TestSubscribeSoak runs 10⁵ windows of a residual with // chains, in the
// where clause and in the return, through one subscription: the feed's heap,
// its budget ledger and its goroutines at the last window are what they were
// once the first thousand had warmed it up. No cache is keyed on a window —
// a residual never holds an absolute path, the only thing whose join
// strategy and index are remembered per document (see DESIGN §7).
func TestSubscribeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	leakcheck.Check(t)
	const warm, windows = 1_000, 100_000
	q, err := xqgo.Compile(`for $l in /Order/OrderLine where $l//Item//ID = "7" return $l//a//ID`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if class, why := q.Streamability(); class != xqgo.StreamBoundedBuffer {
		t.Fatalf("class = %v (%s), want a residual over windows", class, why)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	// A leak of one window's estimate per window would trip this cap a
	// twentieth of the way in.
	budget := xqgo.NewMemoryBudget(1 << 20)
	feed := &endlessOrders{}
	var results int
	var heapWarm, heapEnd uint64
	var ledgerWarm, ledgerEnd int64
	sub := xqgo.NewSubscriber().WithBudget(budget)
	handle := sub.Subscribe(q, func([]byte) error {
		results++
		switch results {
		case warm:
			heapWarm, ledgerWarm = heapInuse(), budget.Used()
		case warm + windows:
			heapEnd, ledgerEnd = heapInuse(), budget.Used()
			feed.stop.Store(true)
		}
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sub.Run(ctx, ctxio.NewReader(ctx, feed), "soak.xml"); err != nil {
		t.Fatal(err)
	}
	if err := handle.Err(); err != nil {
		t.Fatal(err)
	}
	st := handle.Stats()
	if st.Windows < warm+windows || st.Results != st.Windows {
		t.Fatalf("windows = %d, results = %d: want at least %d windows of one result", st.Windows, st.Results, warm+windows)
	}
	if heapEnd > heapWarm+1<<20 {
		t.Errorf("HeapInuse grew from %d to %d bytes over %d windows, want within 1 MiB", heapWarm, heapEnd, windows)
	}
	if ledgerWarm <= 0 || ledgerEnd != ledgerWarm {
		t.Errorf("budget ledger inside a window: %d after %d windows, %d after %d more, want equal and positive",
			ledgerWarm, warm, ledgerEnd, windows)
	}
	// Every window is the same line, so the peak is any one window's bytes.
	// What stays charged once they are all discharged is what the member
	// keeps resident until the owner's ReleaseAll.
	if used, resident := budget.Used(), ledgerWarm-st.PeakBufferBytes; used != resident {
		t.Errorf("budget ledger = %d bytes after the feed ended, want the resident %d", used, resident)
	}
	budget.ReleaseAll()
	if used := budget.Used(); used != 0 {
		t.Errorf("budget ledger = %d bytes after ReleaseAll, want 0", used)
	}
	t.Logf("HeapInuse %d -> %d bytes; ledger %d bytes inside a window, %d of them the window", heapWarm, heapEnd, ledgerWarm, st.PeakBufferBytes)
}
