// Trading partner: the paper's "fraction of a real customer" workload — a
// large Web-Services configuration transformation (WebLogic Integration
// trading-partner management): one outer FOR, nested FLWORs per
// certificate kind, a three-way join of delivery channels, document
// exchanges and transports, and conditional attribute construction.
package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"xqgo"
	"xqgo/internal/workload"
)

func main() {
	doc := xqgo.FromStore(workload.TradingPartners(workload.TPConfig{
		Partners: 100, Seed: 42,
	}))
	fmt.Printf("input: trading-partner configuration, %d nodes\n\n", doc.NumNodes())

	q, err := xqgo.Compile(workload.TradingPartnerQuery, nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx := func() *xqgo.Context { return xqgo.NewContext().Bind("wlc", doc) }

	// Print the first transformed partner.
	out, err := q.Eval(ctx())
	if err != nil {
		log.Fatal(err)
	}
	first, _ := xqgo.ItemString(out[0])
	fmt.Printf("first of %d transformed partners:\n%s\n\n", len(out), first)

	// Time the streamed serialization of the whole transformation (xqbench
	// E1/E3/E11 compare it with the eager reference engine).
	t0 := time.Now()
	if err := q.Execute(ctx(), io.Discard); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed to a writer in %v\n", time.Since(t0))
}
