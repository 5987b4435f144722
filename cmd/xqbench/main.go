// Command xqbench regenerates the experiment tables of EXPERIMENTS.md: one
// sub-table per claim of the paper (E1..E13), printed as aligned text. Run
// a single experiment with -only e5, everything with no flags.
//
// Absolute numbers are hardware-dependent; the shapes (who wins, how the
// gap scales) are what reproduce the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"xqgo"
	engine "xqgo/internal/runtime"
	"xqgo/internal/structjoin"
	"xqgo/internal/tokens"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
)

func main() {
	var (
		only = flag.String("only", "", "run one experiment: e1..e13")
		reps = flag.Int("reps", 3, "timing repetitions (median reported)")
	)
	flag.Parse()
	r := &runner{reps: *reps, w: os.Stdout}

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"e1", "streaming vs eager evaluation", r.e1},
		{"e2", "time to first answer", r.e2},
		{"e3", "lazy evaluation early exit", r.e3},
		{"e4", "skip() for positional access", r.e4},
		{"e5", "structural join vs navigation", r.e5},
		{"e6", "holistic twig vs binary joins", r.e6},
		{"e7", "on-demand node identifiers", r.e7},
		{"e8", "doc-order sort/dedup elision", r.e8},
		{"e9", "dictionary pooling", r.e9},
		{"e10", "rewrite-rule ablation", r.e10},
		{"e11", "memory footprint", r.e11},
		{"e12", "intra-query memoization", r.e12},
		{"e13", "parallel subexpression execution", r.e13},
	}
	ran := false
	for _, e := range experiments {
		if *only != "" && e.id != *only {
			continue
		}
		ran = true
		fmt.Printf("== %s: %s ==\n", strings.ToUpper(e.id), e.name)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "xqbench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

type runner struct {
	reps int
	w    io.Writer
}

// timeIt reports the median wall time of fn over r.reps runs.
func (r *runner) timeIt(fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < r.reps; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func (r *runner) table(header string, rows [][]string) {
	tw := tabwriter.NewWriter(r.w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func mustCompile(src string, opts *xqgo.Options) *xqgo.Query {
	q, err := xqgo.Compile(src, opts)
	if err != nil {
		panic(err)
	}
	return q
}

// mustCompileEager compiles src, unoptimized, for the eager reference engine
// — the comparator of E1, E3 and E11.
func mustCompileEager(src string) *xqgo.Query {
	q, err := xqgo.CompileReference(src, engine.Options{Eager: true})
	if err != nil {
		panic(err)
	}
	return q
}

func mustEval(q *xqgo.Query, ctx *xqgo.Context) xqgo.Sequence {
	out, err := q.Eval(ctx)
	if err != nil {
		panic(err)
	}
	return out
}

func ctxFor(doc *xqgo.Document) *xqgo.Context {
	return xqgo.NewContext().WithContextNode(doc)
}

// ---- E1: streaming vs eager ----

func (r *runner) e1() {
	query := `for $line in /Order/OrderLine
	          where $line/SellersID eq "1"
	          return <lineItem>{string($line/Item/ID)}</lineItem>`
	stream := mustCompile(query, nil)
	eager := mustCompileEager(query)
	firstK := func(q *xqgo.Query, doc *xqgo.Document, k int) {
		it, err := q.Iterator(ctxFor(doc))
		if err != nil {
			panic(err)
		}
		for i := 0; i < k; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
	}
	var rows [][]string
	for _, lines := range []int{1000, 10000, 100000} {
		doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 50, Seed: 1}))
		ts := r.timeIt(func() { mustEval(stream, ctxFor(doc)) })
		te := r.timeIt(func() { mustEval(eager, ctxFor(doc)) })
		// The message-processing scenario: the consumer needs the first 10
		// results. The eager baseline still computes everything.
		tsK := r.timeIt(func() { firstK(stream, doc, 10) })
		teK := r.timeIt(func() { firstK(eager, doc, 10) })
		rows = append(rows, []string{
			fmt.Sprint(lines), ts.String(), te.String(),
			fmt.Sprintf("%.1fx", float64(te)/float64(ts)),
			tsK.String(), teK.String(),
			fmt.Sprintf("%.0fx", float64(teK)/float64(max64(int64(tsK), 1))),
		})
	}
	r.table("OrderLines\tstream full\teager full\tfull speedup\tstream first-10\teager first-10\tfirst-10 speedup", rows)
}

// ---- E2: time to first answer ----

func (r *runner) e2() {
	query := `/Order/OrderLine/Item/ID`
	q := mustCompile(query, nil)
	var rows [][]string
	for _, lines := range []int{1000, 10000, 100000} {
		doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 50, Seed: 1}))
		tFirst := r.timeIt(func() {
			it, err := q.Iterator(ctxFor(doc))
			if err != nil {
				panic(err)
			}
			if _, ok, err := it.Next(); err != nil || !ok {
				panic("no first item")
			}
		})
		tAll := r.timeIt(func() { mustEval(q, ctxFor(doc)) })
		rows = append(rows, []string{
			fmt.Sprint(lines), tFirst.String(), tAll.String(),
			fmt.Sprintf("%.0fx", float64(tAll)/float64(max64(int64(tFirst), 1))),
		})
	}
	r.table("OrderLines\tfirst answer\tfull result\tratio", rows)
}

// ---- E3: lazy early exit ----

func (r *runner) e3() {
	cases := []struct{ name, q string }{
		{"some..satisfies", `some $x in /Order/OrderLine/SellersID satisfies $x eq "1"`},
		{"positional [3]", `(/Order/OrderLine)[3]/Item/ID/text()`},
		{"subsequence 1..5", `subsequence(/Order/OrderLine, 1, 5)/Note/text()`},
	}
	doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: 100000, Sellers: 3, Seed: 1}))
	var rows [][]string
	for _, c := range cases {
		lazy := mustCompile(c.q, nil)
		eager := mustCompileEager(c.q)
		tl := r.timeIt(func() { mustEval(lazy, ctxFor(doc)) })
		te := r.timeIt(func() { mustEval(eager, ctxFor(doc)) })
		rows = append(rows, []string{c.name, tl.String(), te.String(),
			fmt.Sprintf("%.0fx", float64(te)/float64(max64(int64(tl), 1)))})
	}
	r.table("query\tlazy\teager\tspeedup", rows)
}

// ---- E4: skip() ----

func (r *runner) e4() {
	doc := workload.Orders(workload.OrdersConfig{Lines: 50000, Sellers: 10, Seed: 1})
	var rows [][]string
	for _, k := range []int{1, 10, 100} {
		// Token-level: find the k-th OrderLine subtree, with and without Skip.
		withSkip := r.timeIt(func() {
			sc := tokens.NewDocScanner(doc, 0)
			sc.Open()
			seen := 0
			for {
				t, ok, err := sc.Next()
				if err != nil || !ok {
					break
				}
				if t.Kind == tokens.KindStartElement && t.Name.Local == "OrderLine" {
					seen++
					if seen == k {
						break
					}
					sc.Skip() // jump the whole subtree in O(1)
				}
			}
		})
		withoutSkip := r.timeIt(func() {
			sc := tokens.NewDocScanner(doc, 0)
			sc.Open()
			seen := 0
			depthTarget := -1
			for {
				t, ok, err := sc.Next()
				if err != nil || !ok {
					break
				}
				_ = depthTarget
				if t.Kind == tokens.KindStartElement && t.Name.Local == "OrderLine" {
					seen++
					if seen == k {
						break
					}
				}
			}
		})
		rows = append(rows, []string{fmt.Sprint(k), withSkip.String(), withoutSkip.String(),
			fmt.Sprintf("%.1fx", float64(withoutSkip)/float64(max64(int64(withSkip), 1)))})
	}
	r.table("k-th OrderLine\twith skip()\tnext() only\tspeedup", rows)
}

// ---- E5: structural joins ----

func (r *runner) e5() {
	var rows [][]string
	for _, nodes := range []int{10000, 100000} {
		doc := workload.Deep(workload.DeepConfig{Nodes: nodes, Seed: 2})
		idx := structjoin.BuildIndex(doc)
		a := idx.Elements(localName("a"))
		b := idx.Elements(localName("b"))
		tStack := r.timeIt(func() { structjoin.StackTreeDesc(a, b, false) })
		tMerge := r.timeIt(func() { structjoin.TreeMergeDesc(a, b, false) })
		tNav := r.timeIt(func() { structjoin.NavigationDesc(doc, localName("a"), localName("b"), false) })
		engineQ := mustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceNavigation})
		indexedQ := mustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceBinaryJoin})
		wrapped := xqgo.FromStore(doc)
		tEngine := r.timeIt(func() { mustEval(engineQ, ctxFor(wrapped)) })
		// Warm the per-document index cache so the row measures the join,
		// matching the raw-algorithm columns (index build is reported by E5b).
		ctxIdx := ctxFor(wrapped)
		mustEval(indexedQ, ctxIdx)
		tIndexed := r.timeIt(func() { mustEval(indexedQ, ctxIdx) })
		pairs := len(structjoin.StackTreeDesc(a, b, false))
		rows = append(rows, []string{
			fmt.Sprint(nodes), fmt.Sprint(pairs),
			tStack.String(), tMerge.String(), tNav.String(), tEngine.String(), tIndexed.String(),
		})
	}
	r.table("nodes\ta//b pairs\tstack-tree\ttree-merge\tnavigation\tengine nav //a//b\tengine indexed //a//b", rows)
}

// ---- E6: twig joins ----

func (r *runner) e6() {
	doc := workload.Deep(workload.DeepConfig{Nodes: 100000, Seed: 2})
	idx := structjoin.BuildIndex(doc)
	var rows [][]string
	for _, pat := range []string{"a//b", "a//b//c", "a[b]//c", "a[b//c]//d"} {
		twig, err := structjoin.ParseTwig(pat)
		if err != nil {
			panic(err)
		}
		var st structjoin.TwigStats
		tTwig := r.timeIt(func() { st = structjoin.TwigStack(twig, idx) })
		var binPairs int64
		tBin := r.timeIt(func() { binPairs = structjoin.BinaryPlanStats(twig, idx) })
		rows = append(rows, []string{
			pat, fmt.Sprint(st.PathSolutions), fmt.Sprint(binPairs),
			tTwig.String(), tBin.String(),
		})
	}
	r.table("twig\tholistic intermediates\tbinary-plan pairs\tTwigStack\tbinary plan", rows)
}

// ---- E7: node ids on demand ----

func (r *runner) e7() {
	query := `for $line in /Order/OrderLine
	          return <lineItem seller="{$line/SellersID}">{string($line/Item/ID)}</lineItem>`
	withIDs := mustCompile(query, &xqgo.Options{DisableRules: []string{xqgo.RuleNoNodeIDs}})
	noIDs := mustCompile(query, nil)
	var rows [][]string
	for _, lines := range []int{10000, 100000} {
		doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 10, Seed: 1}))
		tWith := r.timeIt(func() {
			if err := withIDs.Execute(ctxFor(doc), io.Discard); err != nil {
				panic(err)
			}
		})
		tNo := r.timeIt(func() {
			if err := noIDs.Execute(ctxFor(doc), io.Discard); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{fmt.Sprint(lines), tNo.String(), tWith.String(),
			fmt.Sprintf("%.2fx", float64(tWith)/float64(max64(int64(tNo), 1)))})
	}
	r.table("OrderLines\tno node ids\twith node ids\tspeedup", rows)
}

// ---- E8: sort/dedup elision ----

func (r *runner) e8() {
	doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: 100000, Sellers: 10, Seed: 1}))
	var rows [][]string
	for _, c := range []struct{ name, q string }{
		{"/Order/OrderLine/Item/ID", `/Order/OrderLine/Item/ID`},
		{"//Item/ID", `//Item/ID`},
	} {
		elided := mustCompile(c.q, nil)
		kept := mustCompile(c.q, &xqgo.Options{DisableRules: []string{xqgo.RulePathOrder}})
		tE := r.timeIt(func() { mustEval(elided, ctxFor(doc)) })
		tK := r.timeIt(func() { mustEval(kept, ctxFor(doc)) })
		rows = append(rows, []string{c.name, tE.String(), tK.String(),
			fmt.Sprintf("%.2fx", float64(tK)/float64(max64(int64(tE), 1)))})
	}
	r.table("path\telision on\telision off\tspeedup", rows)
}

// ---- E9: pooling ----

func (r *runner) e9() {
	doc := workload.Repetitive(20000, 1)
	scan := func() tokens.Iterator { return tokens.NewDocScanner(doc, 0) }
	size := func(opts tokens.EncodeOptions) int {
		var sb countWriter
		enc := tokens.NewEncoder(&sb, opts)
		if err := enc.EncodeStream(scan()); err != nil {
			panic(err)
		}
		return sb.n
	}
	raw := size(tokens.EncodeOptions{})
	pooledNames := size(tokens.EncodeOptions{PoolNames: true})
	pooledAll := size(tokens.EncodeOptions{PoolNames: true, PoolValues: true})
	r.table("encoding\tbytes\tvs raw", [][]string{
		{"unpooled", fmt.Sprint(raw), "1.00x"},
		{"pooled names", fmt.Sprint(pooledNames), fmt.Sprintf("%.2fx", float64(raw)/float64(pooledNames))},
		{"pooled names+values", fmt.Sprint(pooledAll), fmt.Sprintf("%.2fx", float64(raw)/float64(pooledAll))},
	})
}

// ---- E10: rewrite ablation ----

func (r *runner) e10() {
	// Each query exercises one rule family; the "key rule off" column shows
	// that rule's isolated contribution, "no optimizer" the combined one.
	tpDoc := xqgo.FromStore(workload.TradingPartners(workload.TPConfig{Partners: 300, Seed: 42}))
	deepDoc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 30000, Seed: 2}))

	cases := []struct {
		name    string
		src     string
		keyRule string
		ctx     func() *xqgo.Context
	}{
		{
			"trading-partner", workload.TradingPartnerQuery, xqgo.RulePathOrder,
			func() *xqgo.Context { return xqgo.NewContext().Bind("wlc", tpDoc) },
		},
		{
			"cse-heavy",
			`declare variable $d external;
			 for $x in $d/root/a return count($x//b//c) + count($x//b//c)`,
			xqgo.RuleCSE,
			func() *xqgo.Context { return xqgo.NewContext().Bind("d", deepDoc) },
		},
		{
			"const-in-loop",
			`declare variable $d external;
			 count($d//a[2 + 3 eq 5])`,
			xqgo.RuleConstFold,
			func() *xqgo.Context { return xqgo.NewContext().Bind("d", deepDoc) },
		},
		{
			"inline-in-loop",
			`declare variable $d external;
			 declare function local:deep($x) { count($x/b) + count($x/c) };
			 sum(for $x in $d//a return local:deep($x))`,
			xqgo.RuleFnInline,
			func() *xqgo.Context { return xqgo.NewContext().Bind("d", deepDoc) },
		},
		{
			"path-order",
			`declare variable $d external; count($d//c/b)`,
			xqgo.RulePathOrder,
			func() *xqgo.Context { return xqgo.NewContext().Bind("d", deepDoc) },
		},
	}
	var rows [][]string
	for _, c := range cases {
		full := mustCompile(c.src, nil)
		keyOff := mustCompile(c.src, &xqgo.Options{DisableRules: []string{c.keyRule}})
		none := mustCompile(c.src, &xqgo.Options{NoOptimize: true})
		tFull := r.timeIt(func() { mustEval(full, c.ctx()) })
		tKey := r.timeIt(func() { mustEval(keyOff, c.ctx()) })
		tNone := r.timeIt(func() { mustEval(none, c.ctx()) })
		rows = append(rows, []string{
			c.name, c.keyRule, tFull.String(),
			fmt.Sprintf("%.2fx", float64(tKey)/float64(max64(int64(tFull), 1))),
			fmt.Sprintf("%.2fx", float64(tNone)/float64(max64(int64(tFull), 1))),
		})
	}
	r.table("query\tkey rule\tall rules\tkey rule off\tno optimizer", rows)
}

// ---- E11: memory footprint ----

func (r *runner) e11() {
	// A selective query that a lazy engine answers from a prefix of the
	// input: the streaming engine's working set stays flat with document
	// size while the eager engine materializes every intermediate.
	query := `some $x in /Order/OrderLine satisfies $x/SellersID eq "1"`
	stream := mustCompile(query, nil)
	eager := mustCompileEager(query)
	var rows [][]string
	for _, lines := range []int{10000, 100000} {
		doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: lines, Sellers: 50, Seed: 1}))
		ms := allocBytes(func() { mustEval(stream, ctxFor(doc)) })
		me := allocBytes(func() { mustEval(eager, ctxFor(doc)) })
		rows = append(rows, []string{fmt.Sprint(lines),
			fmt.Sprintf("%.1f KB", float64(ms)/1024),
			fmt.Sprintf("%.1f KB", float64(me)/1024),
			fmt.Sprintf("%.0fx", float64(me)/float64(max64(int64(ms), 1)))})
	}
	r.table("OrderLines\tstreaming allocs\teager allocs\tratio", rows)
}

// ---- E12: memoization ----

func (r *runner) e12() {
	fib := func(n int) string {
		return fmt.Sprintf(`
		  declare function local:fib($n as xs:integer) as xs:integer {
		    if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2)
		  };
		  local:fib(%d)`, n)
	}
	var rows [][]string
	for _, n := range []int{20, 24, 26} {
		plain := mustCompile(fib(n), nil)
		memo := mustCompile(fib(n), &xqgo.Options{MemoizeFunctions: true})
		tp := r.timeIt(func() { mustEval(plain, xqgo.NewContext()) })
		tm := r.timeIt(func() { mustEval(memo, xqgo.NewContext()) })
		rows = append(rows, []string{fmt.Sprintf("fib(%d)", n), tp.String(), tm.String(),
			fmt.Sprintf("%.0fx", float64(tp)/float64(max64(int64(tm), 1)))})
	}
	r.table("query	plain	memoized	speedup", rows)
}

// ---- E13: parallel execution ----

func (r *runner) e13() {
	// Three-step chains: a branch must weigh at least parallelMinWeight (12)
	// expression nodes to count as heavy, and count($d//a//b) weighs 10.
	query := `declare variable $d external;
	  (count($d//a//b//c), count($d//b//c//d), count($d//c//d//a), count($d//d//a//b),
	   count($d//a//c//b), count($d//b//d//a), count($d//c//a//d), count($d//d//b//c))`
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 80000, Seed: 2}))
	q := mustCompile(query, nil)
	ctx := func() *xqgo.Context { return xqgo.NewContext().Bind("d", doc) }
	par := func() *xqgo.Context { return ctx().WithWorkers(8) }
	a := mustEval(q, ctx())
	b := mustEval(q, par())
	if len(a) != len(b) {
		panic("parallel result mismatch")
	}
	ts := r.timeIt(func() { mustEval(q, ctx()) })
	tp := r.timeIt(func() { mustEval(q, par()) })
	r.table("branches	sequential	8 workers	speedup	GOMAXPROCS", [][]string{{
		"8", ts.String(), tp.String(),
		fmt.Sprintf("%.1fx", float64(ts)/float64(max64(int64(tp), 1))),
		fmt.Sprint(runtime.GOMAXPROCS(0)),
	}})
}

func allocBytes(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func localName(s string) xdm.QName { return xdm.LocalName(s) }
