package xqgo_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xqgo"
	"xqgo/internal/faultinject"
	"xqgo/internal/leakcheck"
	"xqgo/internal/workload"
)

// feedQueries are the benchmark's eight subscription queries (five of the
// six streamable ones share the spine /Order/OrderLine, two need the store)
// plus queries on other spines: two over a Bib feed, and one whose windows
// nest inside the OrderLine windows of the same feed.
var feedQueries = []string{
	`/Order/date`,
	paperQuery,
	`/Order/OrderLine[SellersID = "2"]/Item/ID`,
	`/Order/OrderLine[Item/Quantity = "20"]/Note`,
	`for $l in /Order/OrderLine
where $l/SellersID eq "3" and $l/Item/Quantity eq "1"
return <hit>{string($l/Item/ID)}</hit>`,
	`/Order/OrderLine[SellersID = "1"][Item/Quantity = "5"]/Item`,
	`count(/Order/OrderLine)`,
	`sum(/Order/OrderLine/Item/Quantity)`,
	`/bib/book[price > 60]/title`,
	`for $b in /bib/book where $b/@year = "1994" return <t>{string($b/title)}</t>`,
	`/Order/OrderLine/Item[Quantity = "7"]/ID`,
}

// sharedSpine indexes the feedQueries that evaluate a residual over
// /Order/OrderLine windows, i.e. land in one window group.
var sharedSpine = []int{1, 2, 3, 4, 5}

// subOutcome is everything one subscription shows its owner.
type subOutcome struct {
	results []string // result k is the event with seq k+1
	stats   xqgo.SubscriptionStats
	err     string
}

func outcomeOf(s *xqgo.Subscription, results [][]byte) subOutcome {
	o := subOutcome{stats: s.Stats()}
	// Results were kept as delivered, not copied, while later windows reused
	// the window arena and the framing buffer: reading them only now is the
	// check that delivered bytes do not change afterwards.
	for _, r := range results {
		o.results = append(o.results, string(r))
	}
	if o.stats.LastResultUnixNano != 0 {
		o.stats.LastResultUnixNano = 1 // wall clock: compare presence only
	}
	if err := s.Err(); err != nil {
		o.err = err.Error()
	}
	return o
}

// runFeed runs the given queries as subscriptions of one Subscriber over
// feed and returns each subscription's outcome, in registration order.
// prepare, when set, may wrap a subscription's delivery callback.
func runFeed(t *testing.T, feed string, queries []*xqgo.Query, budget func() *xqgo.MemoryBudget,
	prepare func(i int, sub func() *xqgo.Subscription, deliver func([]byte) error) func([]byte) error) []subOutcome {
	t.Helper()
	s := xqgo.NewSubscriber()
	if budget != nil {
		s.WithBudget(budget())
	}
	subs := make([]*xqgo.Subscription, len(queries))
	results := make([][][]byte, len(queries))
	for i, q := range queries {
		i := i
		deliver := func(x []byte) error {
			results[i] = append(results[i], x)
			return nil
		}
		if prepare != nil {
			deliver = prepare(i, func() *xqgo.Subscription { return subs[i] }, deliver)
		}
		subs[i] = s.Subscribe(q, deliver)
	}
	if err := s.Run(context.Background(), strings.NewReader(feed), "mem:feed"); err != nil {
		t.Fatalf("feed: %v", err)
	}
	out := make([]subOutcome, len(queries))
	for i := range subs {
		out[i] = outcomeOf(subs[i], results[i])
	}
	return out
}

// runSolo runs every query as the only subscription of its own Subscriber.
func runSolo(t *testing.T, feed string, queries []*xqgo.Query, budget func() *xqgo.MemoryBudget) []subOutcome {
	t.Helper()
	out := make([]subOutcome, len(queries))
	for i, q := range queries {
		out[i] = runFeed(t, feed, []*xqgo.Query{q}, budget, nil)[0]
	}
	return out
}

func compileAll(srcs []string) []*xqgo.Query {
	qs := make([]*xqgo.Query, len(srcs))
	for i, s := range srcs {
		qs[i] = xqgo.MustCompile(s, nil)
	}
	return qs
}

// TestSharedGroupMatchesSolo is the shared-vs-solo differential: whatever
// subset of the queries is registered on one Subscriber, in whatever order,
// every subscription sees exactly what it would see as the feed's only
// subscription — the same results in the same order, the same totals, the
// same error.
func TestSharedGroupMatchesSolo(t *testing.T) {
	leakcheck.Check(t)
	all := compileAll(feedQueries)
	feeds := map[string]string{
		"orders": workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: 300, Sellers: 4, Seed: 11})),
		"bib":    workload.DocToXML(workload.Bib(workload.BibConfig{Books: 120, Seed: 12})),
	}
	for name, feed := range feeds {
		solo := runSolo(t, feed, all, nil)
		delivered := 0
		for _, o := range solo {
			delivered += len(o.results)
		}
		if delivered == 0 {
			t.Fatalf("%s: no query delivered anything", name)
		}
		rng := rand.New(rand.NewSource(20260925))
		for round := 0; round < 12; round++ {
			perm := rng.Perm(len(all))
			pick := perm[:2+rng.Intn(len(all)-1)]
			if round == 0 {
				pick = perm // every query at once
			}
			qs := make([]*xqgo.Query, len(pick))
			for i, qi := range pick {
				qs[i] = all[qi]
			}
			shared := runFeed(t, feed, qs, nil, nil)
			for i, qi := range pick {
				if !reflect.DeepEqual(shared[i], solo[qi]) {
					t.Errorf("%s round %d, registration %v: query %d (%s)\n shared: %+v\n solo:   %+v",
						name, round, pick, qi, feedQueries[qi], brief(shared[i]), brief(solo[qi]))
				}
			}
		}
	}
}

// brief shortens an outcome for a failure message.
func brief(o subOutcome) string {
	head := o.results
	if len(head) > 3 {
		head = head[:3]
	}
	return fmt.Sprintf("%d results %q… stats %+v err %q", len(o.results), head, o.stats, o.err)
}

// TestSharedGroupIsolation: what happens to one member of a window group
// stays with that member. Its siblings deliver exactly what they deliver on a
// clean feed, and the group keeps building windows for them.
func TestSharedGroupIsolation(t *testing.T) {
	defer faultinject.Reset()
	leakcheck.Check(t)
	feed := workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: 400, Sellers: 4, Seed: 5}))
	srcs := make([]string, len(sharedSpine))
	for i, qi := range sharedSpine {
		srcs[i] = feedQueries[qi]
	}
	qs := compileAll(srcs)
	const victim = 2
	clean := runFeed(t, feed, qs, nil, nil)
	for i, o := range clean {
		if len(o.results) == 0 || o.err != "" || (i == victim || i == 0) && len(o.results) < 4 {
			t.Fatalf("clean run, member %d: %s", i, brief(o))
		}
	}
	siblingsUnharmed := func(t *testing.T, got []subOutcome) {
		t.Helper()
		for i := range got {
			if i != victim && !reflect.DeepEqual(got[i], clean[i]) {
				t.Errorf("sibling %d:\n got:   %s\n clean: %s", i, brief(got[i]), brief(clean[i]))
			}
		}
	}

	t.Run("window panic", func(t *testing.T) {
		// Members evaluate a window in registration order, so hit number
		// 3*len(qs)+victim+1 is the victim's fourth window.
		faultinject.Enable(faultinject.WindowPanic,
			faultinject.Fault{After: int64(3*len(qs) + victim), Count: 1})
		defer faultinject.Reset()
		got := runFeed(t, feed, qs, nil, nil)
		if !strings.Contains(got[victim].err, "injected fault") {
			t.Fatalf("victim err = %q, want the injected fault", got[victim].err)
		}
		if got[victim].stats.Windows != 4 {
			t.Errorf("victim counted %d windows, want 4 (detached in its fourth)", got[victim].stats.Windows)
		}
		siblingsUnharmed(t, got)
	})

	t.Run("deliver error", func(t *testing.T) {
		boom := errors.New("subscriber gone")
		got := runFeed(t, feed, qs, nil, func(i int, _ func() *xqgo.Subscription, deliver func([]byte) error) func([]byte) error {
			if i != victim {
				return deliver
			}
			n := 0
			return func(x []byte) error {
				if n++; n == 3 {
					return boom
				}
				return deliver(x)
			}
		})
		if got[victim].err != boom.Error() || len(got[victim].results) != 2 {
			t.Fatalf("victim: %s, want 2 results and %q", brief(got[victim]), boom)
		}
		siblingsUnharmed(t, got)
	})

	t.Run("closed mid-feed", func(t *testing.T) {
		// A sibling closes the victim from inside its own delivery callback,
		// i.e. while the group is in the middle of evaluating a window.
		var victimSub func() *xqgo.Subscription
		got := runFeed(t, feed, qs, nil, func(i int, sub func() *xqgo.Subscription, deliver func([]byte) error) func([]byte) error {
			switch i {
			case victim:
				victimSub = sub
			case 0:
				n := 0
				return func(x []byte) error {
					if n++; n == 2 {
						victimSub().Close()
					}
					return deliver(x)
				}
			}
			return deliver
		})
		if got[victim].err != "" || len(got[victim].results) >= len(clean[victim].results) {
			t.Fatalf("closed victim: %s (clean run delivered %d)", brief(got[victim]), len(clean[victim].results))
		}
		siblingsUnharmed(t, got)
	})

	t.Run("budget trip", func(t *testing.T) {
		// Smaller than one window: the feed-wide budget trips inside the first
		// window, shared (charged once for the group) and solo alike.
		budget := func() *xqgo.MemoryBudget { return xqgo.NewMemoryBudget(150) }
		shared := runFeed(t, feed, qs, budget, nil)
		solo := runSolo(t, feed, qs, budget)
		for i := range qs {
			if !strings.Contains(shared[i].err, "XQGO0001") {
				t.Errorf("member %d: err = %q, want XQGO0001", i, shared[i].err)
			}
			if !reflect.DeepEqual(shared[i], solo[i]) {
				t.Errorf("member %d:\n shared: %s\n solo:   %s", i, brief(shared[i]), brief(solo[i]))
			}
		}
	})
}
