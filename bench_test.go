package xqgo_test

// testing.B benchmarks, one family per experiment of EXPERIMENTS.md
// (E1..E12). cmd/xqbench prints the same comparisons as formatted tables;
// these versions integrate with `go test -bench` and -benchmem.

import (
	"io"
	"testing"

	"xqgo"
	"xqgo/internal/structjoin"
	"xqgo/internal/tokens"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
)

func mustEvalB(b *testing.B, q *xqgo.Query, ctx *xqgo.Context) xqgo.Sequence {
	out, err := q.Eval(ctx)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

func ordersDoc(lines, sellers int) *xqgo.Document {
	return xqgo.FromStore(workload.Orders(workload.OrdersConfig{
		Lines: lines, Sellers: sellers, Seed: 1,
	}))
}

// ---- E1: streaming vs eager on the Q1 transformation ----

const q1 = `for $line in /Order/OrderLine
            where $line/SellersID eq "1"
            return <lineItem>{string($line/Item/ID)}</lineItem>`

func BenchmarkE1StreamingVsEager(b *testing.B) {
	// The paper's scenario is a transformation whose output is serialized
	// (a message processor), so both engines drive Execute; the streaming
	// engine's node-id-free construction then engages (E7).
	run := func(b *testing.B, q *xqgo.Query, doc *xqgo.Document) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := q.Execute(xqgo.NewContext().WithContextNode(doc), io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, lines := range []int{1000, 10000} {
		doc := ordersDoc(lines, 50)
		stream := xqgo.MustCompile(q1, nil)
		eager := eagerOracle(b, q1)
		b.Run("streaming/"+itoa(lines), func(b *testing.B) { run(b, stream, doc) })
		b.Run("eager/"+itoa(lines), func(b *testing.B) { run(b, eager, doc) })
	}
}

// ---- E2: time to first answer ----

func BenchmarkE2TimeToFirst(b *testing.B) {
	doc := ordersDoc(100000, 50)
	q := xqgo.MustCompile(`/Order/OrderLine/Item/ID`, nil)
	b.Run("first-item", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it, err := q.Iterator(xqgo.NewContext().WithContextNode(doc))
			if err != nil {
				b.Fatal(err)
			}
			if _, ok, err := it.Next(); err != nil || !ok {
				b.Fatal("no first item")
			}
		}
	})
	b.Run("full-result", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEvalB(b, q, xqgo.NewContext().WithContextNode(doc))
		}
	})
}

// ---- E3: lazy early exit ----

func BenchmarkE3LazyEarlyExit(b *testing.B) {
	doc := ordersDoc(100000, 3)
	for _, c := range []struct{ name, q string }{
		{"some-satisfies", `some $x in /Order/OrderLine/SellersID satisfies $x eq "1"`},
		{"positional", `(/Order/OrderLine)[3]/Item/ID/text()`},
	} {
		lazy := xqgo.MustCompile(c.q, nil)
		eager := eagerOracle(b, c.q)
		b.Run(c.name+"/lazy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, lazy, xqgo.NewContext().WithContextNode(doc))
			}
		})
		b.Run(c.name+"/eager", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, eager, xqgo.NewContext().WithContextNode(doc))
			}
		})
	}
}

// ---- E4: skip() for positional access over token streams ----

func BenchmarkE4Skip(b *testing.B) {
	doc := workload.Orders(workload.OrdersConfig{Lines: 50000, Sellers: 10, Seed: 1})
	find := func(b *testing.B, useSkip bool) {
		for i := 0; i < b.N; i++ {
			sc := tokens.NewDocScanner(doc, 0)
			if err := sc.Open(); err != nil {
				b.Fatal(err)
			}
			seen := 0
			for {
				t, ok, err := sc.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				if t.Kind == tokens.KindStartElement && t.Name.Local == "OrderLine" {
					seen++
					if seen == 100 {
						break
					}
					if useSkip {
						if err := sc.Skip(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
	b.Run("with-skip", func(b *testing.B) { find(b, true) })
	b.Run("next-only", func(b *testing.B) { find(b, false) })
}

// ---- E5: structural join algorithms ----

func BenchmarkE5StructuralJoin(b *testing.B) {
	doc := workload.Deep(workload.DeepConfig{Nodes: 100000, Seed: 2})
	idx := structjoin.BuildIndex(doc)
	a := idx.Elements(xdm.LocalName("a"))
	d := idx.Elements(xdm.LocalName("b"))
	b.Run("stack-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			structjoin.StackTreeDesc(a, d, false)
		}
	})
	b.Run("tree-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			structjoin.TreeMergeDesc(a, d, false)
		}
	})
	b.Run("navigation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			structjoin.NavigationDesc(doc, xdm.LocalName("a"), xdm.LocalName("b"), false)
		}
	})
	engine := xqgo.MustCompile(`count(//a//b)`, nil)
	wrapped := xqgo.FromStore(doc)
	b.Run("engine-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEvalB(b, engine, xqgo.NewContext().WithContextNode(wrapped))
		}
	})
	indexed := xqgo.MustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceBinaryJoin})
	idxCtx := xqgo.NewContext().WithContextNode(wrapped)
	mustEvalB(b, indexed, idxCtx) // warm the per-document index cache
	b.Run("engine-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEvalB(b, indexed, idxCtx)
		}
	})
}

// ---- E6: holistic twig join vs binary-join plan ----

func BenchmarkE6TwigJoin(b *testing.B) {
	doc := workload.Deep(workload.DeepConfig{Nodes: 100000, Seed: 2})
	idx := structjoin.BuildIndex(doc)
	for _, pat := range []string{"a//b//c", "a[b//c]//d"} {
		twig, err := structjoin.ParseTwig(pat)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("twigstack/"+pat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				structjoin.TwigStack(twig, idx)
			}
		})
		b.Run("binary-plan/"+pat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				structjoin.BinaryPlanStats(twig, idx)
			}
		})
	}
}

// ---- E7: on-demand node identifiers ----

func BenchmarkE7NodeIDs(b *testing.B) {
	doc := ordersDoc(10000, 10)
	query := `for $line in /Order/OrderLine
	          return <lineItem seller="{$line/SellersID}">{string($line/Item/ID)}</lineItem>`
	noIDs := xqgo.MustCompile(query, nil)
	withIDs := xqgo.MustCompile(query, &xqgo.Options{DisableRules: []string{xqgo.RuleNoNodeIDs}})
	b.Run("streamed-no-ids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := noIDs.Execute(xqgo.NewContext().WithContextNode(doc), io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized-ids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := withIDs.Execute(xqgo.NewContext().WithContextNode(doc), io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E8: doc-order sort/dedup elision ----

func BenchmarkE8SortDedupElision(b *testing.B) {
	doc := ordersDoc(100000, 10)
	for _, c := range []struct{ name, q string }{
		{"child-path", `/Order/OrderLine/Item/ID`},
		{"descendant-path", `//Item/ID`},
	} {
		on := xqgo.MustCompile(c.q, nil)
		off := xqgo.MustCompile(c.q, &xqgo.Options{DisableRules: []string{xqgo.RulePathOrder}})
		b.Run(c.name+"/elided", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, on, xqgo.NewContext().WithContextNode(doc))
			}
		})
		b.Run(c.name+"/sorted", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, off, xqgo.NewContext().WithContextNode(doc))
			}
		})
	}
}

// ---- E9: dictionary pooling in the binary token stream ----

func BenchmarkE9Pooling(b *testing.B) {
	doc := workload.Repetitive(20000, 1)
	encode := func(b *testing.B, opts tokens.EncodeOptions) {
		for i := 0; i < b.N; i++ {
			enc := tokens.NewEncoder(io.Discard, opts)
			if err := enc.EncodeStream(tokens.NewDocScanner(doc, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unpooled", func(b *testing.B) { encode(b, tokens.EncodeOptions{}) })
	b.Run("pooled", func(b *testing.B) {
		encode(b, tokens.EncodeOptions{PoolNames: true, PoolValues: true})
	})
}

// ---- E10: rewrite-rule ablation on the trading-partner query ----

func BenchmarkE10RewriteAblation(b *testing.B) {
	doc := xqgo.FromStore(workload.TradingPartners(workload.TPConfig{Partners: 150, Seed: 42}))
	run := func(b *testing.B, q *xqgo.Query) {
		for i := 0; i < b.N; i++ {
			if err := q.Execute(xqgo.NewContext().Bind("wlc", doc), io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("all-rules", func(b *testing.B) {
		run(b, xqgo.MustCompile(workload.TradingPartnerQuery, nil))
	})
	for _, rule := range []string{xqgo.RulePathOrder, xqgo.RuleNoNodeIDs, xqgo.RuleLetFold} {
		rule := rule
		b.Run("without-"+rule, func(b *testing.B) {
			run(b, xqgo.MustCompile(workload.TradingPartnerQuery,
				&xqgo.Options{DisableRules: []string{rule}}))
		})
	}
	b.Run("no-optimizer", func(b *testing.B) {
		run(b, xqgo.MustCompile(workload.TradingPartnerQuery, &xqgo.Options{NoOptimize: true}))
	})
}

// ---- E11: memory footprint (streaming flat, eager linear; see B/op) ----

func BenchmarkE11Memory(b *testing.B) {
	query := `some $x in /Order/OrderLine satisfies $x/SellersID eq "1"`
	stream := xqgo.MustCompile(query, nil)
	eager := eagerOracle(b, query)
	for _, lines := range []int{10000, 100000} {
		doc := ordersDoc(lines, 50)
		b.Run("streaming/"+itoa(lines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEvalB(b, stream, xqgo.NewContext().WithContextNode(doc))
			}
		})
		b.Run("eager/"+itoa(lines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEvalB(b, eager, xqgo.NewContext().WithContextNode(doc))
			}
		})
	}
}

// ---- E12: intra-query function memoization ----

func BenchmarkE12Memoization(b *testing.B) {
	const fib = `
	  declare function local:fib($n as xs:integer) as xs:integer {
	    if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2)
	  };
	  local:fib(20)`
	plain := xqgo.MustCompile(fib, nil)
	memo := xqgo.MustCompile(fib, &xqgo.Options{MemoizeFunctions: true})
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEvalB(b, plain, xqgo.NewContext())
		}
	})
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEvalB(b, memo, xqgo.NewContext())
		}
	})
}
