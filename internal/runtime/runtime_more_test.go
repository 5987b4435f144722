package runtime

import (
	"testing"
	"time"

	"xqgo/internal/xdm"
	"xqgo/internal/xqparse"
)

// Additional runtime behaviors: focus semantics, namespaces end to end,
// LazySeq mechanics, frame scoping.

func TestLazySeqMemoization(t *testing.T) {
	pulls := 0
	src := iterFunc(func() (xdm.Item, bool, error) {
		if pulls >= 3 {
			return nil, false, nil
		}
		pulls++
		return xdm.NewInteger(int64(pulls)), true, nil
	})
	ls := NewLazySeq(src)

	it1 := ls.Iterator()
	first, ok, err := it1.Next()
	if err != nil || !ok || first.(xdm.Atomic).Int() != 1 {
		t.Fatal("first pull")
	}
	if pulls != 1 {
		t.Fatalf("producer pulled %d times, want 1 (lazy)", pulls)
	}

	// A second consumer re-reads the cache, not the producer.
	it2 := ls.Iterator()
	again, _, _ := it2.Next()
	if again.(xdm.Atomic).Int() != 1 || pulls != 1 {
		t.Fatalf("memoization failed: pulls=%d", pulls)
	}

	all, err := ls.All()
	if err != nil || len(all) != 3 || pulls != 3 {
		t.Fatalf("All: %v, pulls=%d", all, pulls)
	}
	// Repeated All is free.
	if _, err := ls.All(); err != nil || pulls != 3 {
		t.Fatal("re-materialization")
	}
	if n, _ := ls.Len(); n != 3 {
		t.Fatal("Len")
	}
}

func TestLazySeqErrorSticky(t *testing.T) {
	calls := 0
	src := iterFunc(func() (xdm.Item, bool, error) {
		calls++
		if calls > 1 {
			return nil, false, xdm.ErrDivZero()
		}
		return xdm.NewInteger(1), true, nil
	})
	ls := NewLazySeq(src)
	it := ls.Iterator()
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatal("first item ok")
	}
	if _, _, err := it.Next(); err == nil {
		t.Fatal("error expected")
	}
	// The error is cached; the producer is not re-pulled.
	it2 := ls.Iterator()
	it2.Next()
	if _, _, err := it2.Next(); err == nil {
		t.Fatal("cached error expected")
	}
	if calls != 2 {
		t.Fatalf("producer called %d times, want 2", calls)
	}
}

func TestFrameScoping(t *testing.T) {
	dyn := &Dynamic{}
	root := rootFrame(dyn)
	f1 := root.bind(1, MaterializedSeq(xdm.Sequence{xdm.NewInteger(10)}))
	f2 := f1.bind(2, MaterializedSeq(xdm.Sequence{xdm.NewInteger(20)}))
	f3 := f2.bind(1, MaterializedSeq(xdm.Sequence{xdm.NewInteger(99)})) // shadows id 1

	if v, _ := f3.lookup(1).All(); v[0].(xdm.Atomic).Int() != 99 {
		t.Error("innermost binding wins")
	}
	if v, _ := f3.lookup(2).All(); v[0].(xdm.Atomic).Int() != 20 {
		t.Error("outer binding visible")
	}
	if v, _ := f2.lookup(1).All(); v[0].(xdm.Atomic).Int() != 10 {
		t.Error("outer frame unaffected")
	}

	// Focus: nearest focus frame wins; barriers hide it.
	ff := f3.focus(xdm.NewInteger(7), 3, func() (int64, error) { return 9, nil })
	if it, ok := ff.ContextItem(); !ok || it.(xdm.Atomic).Int() != 7 {
		t.Error("focus item")
	}
	if ff.Position() != 3 {
		t.Error("focus position")
	}
	if n, err := ff.Size(); err != nil || n != 9 {
		t.Error("focus size")
	}
	bar := ff.barrier()
	if _, ok := bar.ContextItem(); ok {
		t.Error("barrier must hide the focus")
	}
	// Variables remain visible through the barrier.
	if v, _ := bar.lookup(2).All(); v[0].(xdm.Atomic).Int() != 20 {
		t.Error("barrier must not hide variables")
	}
}

func TestConstructorNamespaceOutput(t *testing.T) {
	got, err := evalQuery(t, `
	  declare namespace x = "urn:example";
	  <x:root><x:child/></x:root>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The serializer must emit a binding for urn:example.
	if !contains(got, "urn:example") {
		t.Errorf("namespace lost in output: %q", got)
	}
}

func TestDefaultElementNamespace(t *testing.T) {
	got, err := evalQuery(t, `
	  declare default element namespace "urn:d";
	  namespace-uri-from-QName(node-name(<e/>))`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != "urn:d" {
		t.Errorf("default element namespace = %q", got)
	}
}

func TestPositionalVariableVsPositionFunction(t *testing.T) {
	// at $i counts binding tuples; position() in a predicate counts the
	// filtered-sequence position.
	got, err := evalQuery(t, `
	  string-join(
	    for $b at $i in /bib/book[position() ge 2]
	    return concat($i, "-", string($b/@year)), " ")`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != "1-2000 2-1999" {
		t.Errorf("positional interplay = %q", got)
	}
}

func TestLastInNestedPredicates(t *testing.T) {
	got, err := evalQuery(t, `string(/bib/book[last()]/title)`, Options{})
	if err != nil || got != "Economics" {
		t.Errorf("last() = %q, %v", got, err)
	}
	got, err = evalQuery(t, `string((//author)[last()]/last)`, Options{})
	if err != nil || got != "Buneman" {
		t.Errorf("nested last() = %q, %v", got, err)
	}
}

func TestWhereOverEmptyBinding(t *testing.T) {
	got, err := evalQuery(t, `for $x in () where $x eq 1 return $x`, Options{})
	if err != nil || got != "" {
		t.Errorf("empty for = %q, %v", got, err)
	}
}

func TestDeepRecursionFunction(t *testing.T) {
	got, err := evalQuery(t, `
	  declare function local:sum($n as xs:integer) as xs:integer {
	    if ($n eq 0) then 0 else $n + local:sum($n - 1)
	  };
	  local:sum(2000)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != "2001000" {
		t.Errorf("recursive sum = %q", got)
	}
}

func TestSequenceTypeOnGlobalAndLet(t *testing.T) {
	if _, err := evalQuery(t, `declare variable $v as xs:integer := "nope"; $v`, Options{}); err == nil {
		t.Error("global variable type violation must fail")
	}
	got, err := evalQuery(t, `declare variable $v as xs:integer := 5; $v * 2`, Options{})
	if err != nil || got != "10" {
		t.Errorf("typed global = %q, %v", got, err)
	}
}

func TestEagerEngineStillLazyOnErrorsInUntakenBranch(t *testing.T) {
	// Even the eager engine must not evaluate the untaken if branch (the
	// branch choice is control flow, not data flow).
	got, err := evalQuery(t, `if (1 eq 1) then "ok" else 1 idiv 0`, Options{Eager: true})
	if err != nil || got != "ok" {
		t.Errorf("eager untaken branch: %q, %v", got, err)
	}
}

func TestStringValueOfMixedContent(t *testing.T) {
	got, err := evalQuery(t, `string(<s>one <b>two</b> three</s>)`, Options{})
	if err != nil || got != "one two three" {
		t.Errorf("mixed string value = %q, %v", got, err)
	}
}

func TestCommentAndPIConstructorsInContent(t *testing.T) {
	got, err := evalQuery(t,
		`<r>{comment {"no", "tes"}}{processing-instruction p {"x"}}</r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != `<r><!--no tes--><?p x?></r>` {
		t.Errorf("constructed comment/pi = %q", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// ---- extensions: group by, try/catch ----

func TestGroupBy(t *testing.T) {
	got, err := evalQuery(t, `
	  for $b in /bib/book
	  let $n := count($b/author)
	  group by $k := $n
	  order by $k
	  return concat($k, ":", count($b))`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// books have 0, 1 and 2 authors -> groups 0:1, 1:1, 2:1
	if got != "0:1 1:1 2:1" {
		t.Errorf("group by author count = %q", got)
	}

	// Grouped variables concatenate across the group.
	got, err = evalQuery(t, `
	  for $x in (1, 2, 3, 4, 5, 6)
	  group by $parity := $x mod 2
	  order by $parity
	  return <g p="{$parity}">{$x}</g>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != `<g p="0">2 4 6</g><g p="1">1 3 5</g>` {
		t.Errorf("grouped concatenation = %q", got)
	}

	// Empty key forms its own group; multiple keys combine.
	got, err = evalQuery(t, `
	  for $x in (1, 2, 3)
	  group by $a := (if ($x eq 2) then () else "k"), $b := $x ge 2
	  order by string($b), count($x) descending
	  return count($x)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != "1 1 1" {
		t.Errorf("multi-key groups = %q", got)
	}

	// String vs untyped keys group together (eq semantics).
	got, err = evalQuery(t, `
	  for $v in (<a>x</a>/text(), "x")
	  group by $k := $v
	  return count($v)`, Options{})
	if err != nil || got != "2" {
		t.Errorf("untyped/string key unification = %q, %v", got, err)
	}
}

func TestGroupByBothEngines(t *testing.T) {
	q := `for $b in /bib/book
	      group by $p := count($b/author) ge 1
	      order by string($p)
	      return concat($p, "=", count($b))`
	a, err := evalQuery(t, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := evalQuery(t, q, Options{Eager: true})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("engines disagree on group by: %q vs %q", a, b)
	}
}

func TestTryCatch(t *testing.T) {
	cases := []struct{ q, want string }{
		{`try { 1 idiv 0 } catch * { "caught" }`, "caught"},
		{`try { 1 + 1 } catch * { "caught" }`, "2"},
		{`try { error("X", "boom") } catch * { "handled" }`, "handled"},
		// Errors inside lazily-consumed sequences are caught too (the try
		// clause materializes).
		{`try { for $i in (1, 2) return $i idiv ($i - 1) } catch * { "lazy-caught" }`, "lazy-caught"},
		// Nested: inner catch wins.
		{`try { try { 1 idiv 0 } catch * { "inner" } } catch * { "outer" }`, "inner"},
		// Errors in the catch clause propagate.
	}
	for _, c := range cases {
		got, err := evalQuery(t, c.q, Options{})
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
	if _, err := evalQuery(t, `try { 1 idiv 0 } catch * { 2 idiv 0 }`, Options{}); err == nil {
		t.Error("catch-clause errors must propagate")
	}
}

// ---- memoization ----

func TestMemoizeFunctions(t *testing.T) {
	fib := `
	  declare function local:fib($n as xs:integer) as xs:integer {
	    if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2)
	  };
	  local:fib(22)`
	plain, err := evalQuery(t, fib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := evalQuery(t, fib, Options{MemoizeFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain != memo || memo != "17711" {
		t.Errorf("fib(22): plain %s, memoized %s, want 17711", plain, memo)
	}

	// Node-constructing functions are never memoized: each call must yield
	// a fresh identity.
	got, err := evalQuery(t, `
	  declare function local:mk() { <a/> };
	  count(distinct-nodes((local:mk(), local:mk())))`, Options{MemoizeFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != "2" {
		t.Errorf("constructor function memoized: distinct = %s, want 2", got)
	}

	// Node arguments bypass the cache but still evaluate correctly.
	got, err = evalQuery(t, `
	  declare function local:titleOf($b) { string($b/title) };
	  string-join(for $b in /bib/book return local:titleOf($b), ";")`,
		Options{MemoizeFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != "TCP/IP Illustrated;Data on the Web;Economics" {
		t.Errorf("node-arg calls = %q", got)
	}

	// Functions calling nondeterministic built-ins are not cached (two
	// different arguments must not collide either way; just check it runs).
	if _, err := evalQuery(t, `
	  declare function local:t($x) { string(current-date()) };
	  (local:t(1), local:t(2))`, Options{MemoizeFunctions: true}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoizationIsFaster(t *testing.T) {
	// fib(24) naive is ~75k calls; memoized is 25. The timing margin is so
	// large a factor-2 check is safe even on noisy machines.
	fib := `
	  declare function local:fib($n as xs:integer) as xs:integer {
	    if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2)
	  };
	  local:fib(24)`
	timeOf := func(opts Options) int64 {
		q, err := xqparse.Parse(fib)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		start := nowNanos()
		if _, err := p.Eval(testDynamic(t)); err != nil {
			t.Fatal(err)
		}
		return nowNanos() - start
	}
	plain := timeOf(Options{})
	memo := timeOf(Options{MemoizeFunctions: true})
	if memo*2 > plain {
		t.Errorf("memoization not paying off: plain %dns, memo %dns", plain, memo)
	}
}

func nowNanos() int64 { return time.Now().UnixNano() }
