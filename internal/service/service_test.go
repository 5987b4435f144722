package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqgo"
)

const bibXML = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
  <book year="1999"><title>The Economics of Technology</title><price>129.95</price></book>
</bib>`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	if _, err := s.RegisterDocument("bib", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCatalogAccounting(t *testing.T) {
	c := NewCatalog()
	e, err := c.Register("bib", strings.NewReader(bibXML), xqgo.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Bytes != int64(len(bibXML)) {
		t.Errorf("Bytes = %d, want %d", e.Bytes, len(bibXML))
	}
	if e.Nodes == 0 {
		t.Error("Nodes = 0")
	}
	docs, bytes, nodes := c.Totals()
	if docs != 1 || bytes != e.Bytes || nodes != int64(e.Nodes) {
		t.Errorf("Totals = (%d,%d,%d), want (1,%d,%d)", docs, bytes, nodes, e.Bytes, e.Nodes)
	}

	// Re-registering replaces, not double-counts.
	if _, err := c.Register("bib", strings.NewReader(bibXML), xqgo.ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	if docs, _, _ := c.Totals(); docs != 1 {
		t.Errorf("docs after re-register = %d", docs)
	}

	if !c.Evict("bib") {
		t.Error("Evict returned false for registered doc")
	}
	if c.Evict("bib") {
		t.Error("Evict returned true for missing doc")
	}
	if docs, bytes, nodes := c.Totals(); docs != 0 || bytes != 0 || nodes != 0 {
		t.Errorf("Totals after evict = (%d,%d,%d)", docs, bytes, nodes)
	}
}

func TestCatalogSharedIndex(t *testing.T) {
	c := NewCatalog()
	e, err := c.Register("bib", strings.NewReader(bibXML), xqgo.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.builtIndex(); ok {
		t.Fatal("index reported built before first use")
	}
	// Concurrent first access builds exactly one shared index.
	const n = 16
	got := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); got[i] = e.Index() }(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different index instance", i)
		}
	}
	if idx, ok := e.builtIndex(); !ok || idx == nil {
		t.Error("builtIndex not visible after Index()")
	}
}

func TestPlanCacheLRUAndCounters(t *testing.T) {
	p := NewPlanCache(2)
	for i, src := range []string{"1+1", "2+2", "1+1", "3+3", "2+2"} {
		if _, _, err := p.Get(src, nil); err != nil {
			t.Fatalf("Get %d (%q): %v", i, src, err)
		}
	}
	st := p.Stats()
	// 1+1 miss, 2+2 miss, 1+1 hit, 3+3 miss (evicts 2+2), 2+2 miss again.
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 || st.Size != 2 {
		t.Errorf("stats = %+v, want hits=1 misses=4 evictions=2 size=2", st)
	}

	// Different options are different keys.
	if _, cached, _ := p.Get("2+2", &xqgo.Options{NoOptimize: true}); cached {
		t.Error("options change should miss")
	}

	// Compile errors are not cached.
	if _, _, err := p.Get("1 +", nil); err == nil {
		t.Fatal("want compile error")
	}
	if _, _, err := p.Get("1 +", nil); err == nil {
		t.Fatal("want compile error on second lookup too")
	}
	if s := p.Stats(); s.Size != 2 {
		t.Errorf("failed compilations entered the cache: size=%d", s.Size)
	}
}

// Every field of xqgo.Options changes the compiled plan, so every field must
// change the cache key: flip each in turn. A field added to Options without a
// Fingerprint term fails here.
func TestFingerprintKeysEveryOption(t *testing.T) {
	const src = "/bib/book/title"
	base := Fingerprint(src, nil)
	typ := reflect.TypeOf(xqgo.Options{})
	for i := 0; i < typ.NumField(); i++ {
		var o xqgo.Options
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(xqgo.ForceTwig))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{xqgo.RuleCSE}))
		default:
			t.Fatalf("Options.%s: kind %s — teach this test to flip it", typ.Field(i).Name, f.Kind())
		}
		if Fingerprint(src, &o) == base {
			t.Errorf("Options.%s is not part of the plan-cache key", typ.Field(i).Name)
		}
	}

	// The consequence the key guards: a plan compiled without projection
	// must not be served to a request that asked for it.
	p := NewPlanCache(4)
	if _, _, err := p.Get(src, &xqgo.Options{DisableProjection: true}); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := p.Get(src, nil); err != nil || cached {
		t.Errorf("default-options lookup after a DisableProjection compile: cached=%v, err=%v", cached, err)
	}
}

// Auto is the zero strategy: a request without options and one that asks
// for Auto explicitly compile the same plan, so they share one cache entry.
func TestFingerprintAutoIsDefault(t *testing.T) {
	const src = "/bib/book/title"
	auto := &xqgo.Options{Strategy: xqgo.StrategyAuto}
	if a, b := Fingerprint(src, nil), Fingerprint(src, auto); a != b {
		t.Errorf("Fingerprint(nil) = %q, Fingerprint(Auto) = %q", a, b)
	}
	p := NewPlanCache(4)
	if _, _, err := p.Get(src, nil); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := p.Get(src, auto); err != nil || !cached {
		t.Errorf("Auto lookup after a default-options compile: cached=%v, err=%v", cached, err)
	}
	if s := p.Stats(); s.Size != 1 {
		t.Errorf("plan cache holds %d entries for one plan", s.Size)
	}
}

func TestPlanCacheSingleFlight(t *testing.T) {
	p := NewPlanCache(8)
	const n = 50
	var wg sync.WaitGroup
	plans := make([]*xqgo.Query, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, _, err := p.Get("for $b in /bib/book return $b/title", nil)
			if err != nil {
				t.Error(err)
			}
			plans[i] = q
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan instance", i)
		}
	}
	if st := p.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single-flight)", st.Misses)
	}
}

func TestExecutorAdmissionControl(t *testing.T) {
	e := NewExecutor(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup

	// Occupy the single worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Do(context.Background(), func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	// Fill the single queue slot.
	queued := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		queued <- e.Do(context.Background(), func() error { return nil })
	}()
	// Wait until the queued request is visibly waiting.
	deadline := time.Now().Add(2 * time.Second)
	for e.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Now the pool is saturated: worker busy + queue full.
	if err := e.Do(context.Background(), func() error { return nil }); !errors.Is(err, ErrSaturated) {
		t.Errorf("saturated Do = %v, want ErrSaturated", err)
	}

	// A queued request whose deadline expires is abandoned, not executed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// This one is rejected outright (queue still full).
	if err := e.Do(ctx, func() error { return nil }); !errors.Is(err, ErrSaturated) {
		t.Errorf("Do = %v, want ErrSaturated", err)
	}

	close(release)
	wg.Wait()
	if err := <-queued; err != nil {
		t.Errorf("queued request failed: %v", err)
	}
	if e.InFlight() != 0 || e.Queued() != 0 {
		t.Errorf("pool not drained: inflight=%d queued=%d", e.InFlight(), e.Queued())
	}
}

func TestExecutorDeadlineWhileQueued(t *testing.T) {
	e := NewExecutor(1, 4)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = e.Do(context.Background(), func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	err := e.Do(ctx, func() error { ran.Store(true); return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Do = %v, want DeadlineExceeded", err)
	}
	if ran.Load() {
		t.Error("expired request was executed")
	}
}

func TestExecutorWorkerLease(t *testing.T) {
	e := NewExecutor(4, 2)

	// Idle pool: leases grant up to every worker slot, accounted in Leased.
	if got := e.TryLease(10); got != 4 {
		t.Fatalf("idle TryLease(10) = %d, want 4", got)
	}
	if e.Leased() != 4 {
		t.Fatalf("Leased = %d, want 4", e.Leased())
	}
	if got := e.TryLease(1); got != 0 {
		t.Fatalf("exhausted TryLease = %d, want 0", got)
	}
	e.Release(4)
	if e.Leased() != 0 {
		t.Fatalf("Leased after release = %d, want 0", e.Leased())
	}

	// Requests in flight shrink what a lease can take.
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Do(context.Background(), func() error {
				started <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	<-started
	<-started
	if got := e.TryLease(10); got != 2 {
		t.Errorf("TryLease with 2 in flight = %d, want 2", got)
	} else {
		e.Release(got)
	}
	close(release)
	wg.Wait()
}

func TestExecutorLeaseRefusedWhileQueued(t *testing.T) {
	e := NewExecutor(1, 4)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Do(context.Background(), func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Do(context.Background(), func() error { return nil })
	}()
	deadline := time.Now().Add(2 * time.Second)
	for e.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// With a request waiting, morsel leases get nothing — queued work wins.
	if got := e.TryLease(1); got != 0 {
		t.Errorf("TryLease while queued = %d, want 0", got)
	}
	close(release)
	wg.Wait()
}

func TestServiceQueryWorkers(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueryWorkers: 4})
	res, err := s.Query(context.Background(), Request{
		Query:      "count(//*)",
		ContextDoc: "bib",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.XML != "10" {
		t.Errorf("result = %q, want 10", res.XML)
	}
	st := s.Stats()
	if st.QueryWorkers != 4 {
		t.Errorf("stats queryWorkers = %d, want 4", st.QueryWorkers)
	}
	if st.LeasedWorkers != 0 {
		t.Errorf("stats leasedWorkers = %d after drain, want 0", st.LeasedWorkers)
	}

	// Negative QueryWorkers resolves to GOMAXPROCS.
	s2 := New(Config{QueryWorkers: -1})
	if s2.cfg.QueryWorkers < 1 {
		t.Errorf("QueryWorkers -1 resolved to %d, want >= 1", s2.cfg.QueryWorkers)
	}
}

func TestServiceQueryAndVars(t *testing.T) {
	s := newTestService(t, Config{})
	res, err := s.Query(context.Background(), Request{
		Query:      "count(/bib/book)",
		ContextDoc: "bib",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.XML != "3" {
		t.Errorf("result = %q, want 3", res.XML)
	}
	if res.Cached {
		t.Error("first request reported cached")
	}
	res, err = s.Query(context.Background(), Request{Query: "count(/bib/book)", ContextDoc: "bib"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("second request not cached")
	}

	// fn:doc by catalog name, plus typed slice variable binding.
	res, err = s.Query(context.Background(), Request{
		Query: `declare variable $years external;
			count(doc("bib")/bib/book[@year = $years])`,
		Vars: map[string]any{"years": []int64{1994, 1999}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.XML != "2" {
		t.Errorf("var-bound result = %q, want 2", res.XML)
	}

	// Unknown context document.
	if _, err := s.Query(context.Background(), Request{Query: "1", ContextDoc: "nope"}); !errors.Is(err, ErrUnknownDocument) {
		t.Errorf("err = %v, want ErrUnknownDocument", err)
	}

	// Compile errors are BadRequestError.
	var bad *BadRequestError
	if _, err := s.Query(context.Background(), Request{Query: "1 +"}); !errors.As(err, &bad) {
		t.Errorf("err = %v, want BadRequestError", err)
	}
}

func TestServiceCollections(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.RegisterDocument("bib2", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	if err := s.Catalog.RegisterCollection("all", []string{"bib", "bib2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Catalog.RegisterCollection("broken", []string{"missing"}); err == nil {
		t.Error("collection with unregistered member should fail")
	}
	res, err := s.Query(context.Background(), Request{Query: `count(collection("all")//book)`})
	if err != nil {
		t.Fatal(err)
	}
	if res.XML != "6" {
		t.Errorf("collection count = %q, want 6", res.XML)
	}
}

func TestServiceDeadline(t *testing.T) {
	s := newTestService(t, Config{})
	// A query that would run for a very long time without the interrupt
	// hook: the deadline must abort it mid-evaluation.
	start := time.Now()
	_, err := s.Query(context.Background(), Request{
		Query:   "count(for $i in 1 to 2000000000 return $i)",
		Timeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline enforcement took %v", d)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
}

func TestServiceResultSizeLimit(t *testing.T) {
	s := newTestService(t, Config{})
	_, err := s.Query(context.Background(), Request{
		Query:          `for $i in 1 to 100000 return <x>{$i}</x>`,
		MaxResultBytes: 1024,
	})
	if !errors.Is(err, ErrResultTooLarge) {
		t.Errorf("err = %v, want ErrResultTooLarge", err)
	}
	// Unlimited override works.
	if _, err := s.Query(context.Background(), Request{
		Query:          `string-length(string-join(for $i in 1 to 100 return "x", ""))`,
		MaxResultBytes: -1,
	}); err != nil {
		t.Errorf("unlimited request failed: %v", err)
	}
}

func TestServiceStructuralJoinSharing(t *testing.T) {
	s := New(Config{Options: xqgo.Options{Strategy: xqgo.ForceTwig}})
	if _, err := s.RegisterDocument("bib", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	const q = "count(/bib//book//title)"
	want := ""
	for i := 0; i < 8; i++ {
		res, err := s.Query(context.Background(), Request{Query: q, ContextDoc: "bib"})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.XML
			continue
		}
		if res.XML != want {
			t.Fatalf("request %d: %q != %q", i, res.XML, want)
		}
	}
	if want != "3" {
		t.Errorf("join count = %q, want 3", want)
	}
	e, _ := s.Catalog.Get("bib")
	if _, ok := e.builtIndex(); !ok {
		t.Error("shared index was never built despite ForceTwig")
	}
}

func TestStatsPercentiles(t *testing.T) {
	st := newStatsCore()
	for i := 1; i <= 100; i++ {
		st.observeTraced(outcomeOK, time.Duration(i)*time.Millisecond, "")
	}
	p50, p90, p99, p999, _ := st.routePercentiles("query")
	// Nearest-rank over 1..100ms is exact: ceil(p*100) milliseconds.
	if p50 != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", p50)
	}
	if p90 != 90*time.Millisecond {
		t.Errorf("p90 = %v, want 90ms", p90)
	}
	if p99 != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", p99)
	}
	if p999 != 100*time.Millisecond {
		t.Errorf("p99.9 = %v, want 100ms", p999)
	}
}
