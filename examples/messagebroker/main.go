// Message broker: the paper's "XML message brokers" use case — simple path
// predicates over a stream of small transient messages, no indexes, compile
// once / run per message. The broker routes each order message to a
// destination decided by an XQuery predicate and rewrites it with a
// transformation query.
package main

import (
	"fmt"
	"log"
	"strings"

	"xqgo"
	"xqgo/internal/workload"
)

// route pairs a name with a compiled routing predicate.
type route struct {
	name string
	pred *xqgo.Query
}

func main() {
	// Routing table: compiled once, evaluated per message.
	routes := []route{
		{"priority", xqgo.MustCompile(`exists(/Order/OrderLine[Item/Quantity > 15])`, nil)},
		{"bulk", xqgo.MustCompile(`count(/Order/OrderLine) >= 40`, nil)},
		{"default", xqgo.MustCompile(`true()`, nil)},
	}
	// Rewriting transformation applied to routed messages.
	rewrite := xqgo.MustCompile(`
	  <routedOrder id="{/Order/@id}" lines="{count(/Order/OrderLine)}">
	    { for $l in /Order/OrderLine
	      where $l/Item/Quantity > 15
	      return <hot sku="{$l/Item/ID}" qty="{$l/Item/Quantity}"/> }
	  </routedOrder>`, nil)

	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		// Each message is a small transient document.
		msg := xqgo.FromStore(workload.Orders(workload.OrdersConfig{
			Lines: 5 + i%50, Sellers: 10, Seed: int64(i),
		}))
		dest := routeMessage(routes, msg)
		counts[dest]++
		if dest == "priority" && counts[dest] <= 2 {
			var sb strings.Builder
			if err := rewrite.Execute(xqgo.NewContext().WithContextNode(msg), &sb); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("priority message %d -> %.120s...\n", i, sb.String())
		}
	}
	fmt.Println("\nrouted message counts:")
	for _, r := range routes {
		fmt.Printf("  %-8s %d\n", r.name, counts[r.name])
	}
}

func routeMessage(routes []route, msg *xqgo.Document) string {
	for _, r := range routes {
		out, err := r.pred.Eval(xqgo.NewContext().WithContextNode(msg))
		if err != nil {
			log.Fatal(err)
		}
		if len(out) == 1 {
			if b, ok := out[0].(xqgo.Atomic); ok && b.Bool() {
				return r.name
			}
		}
	}
	return "default"
}
