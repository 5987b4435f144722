package xqgo_test

import (
	"strings"
	"testing"

	"xqgo"
	"xqgo/internal/workload"
)

// TestTradingPartnerQuery runs the scaled-down customer transformation over
// generated trading-partner data on both engines and checks the outputs
// match.
func TestTradingPartnerQuery(t *testing.T) {
	doc := xqgo.FromStore(workload.TradingPartners(workload.TPConfig{Partners: 8, Seed: 42}))

	stream, err := xqgo.Compile(workload.TradingPartnerQuery, nil)
	if err != nil {
		t.Fatalf("compile (streaming): %v", err)
	}
	eager := eagerOracle(t, workload.TradingPartnerQuery)

	ctx := func() *xqgo.Context { return xqgo.NewContext().Bind("wlc", doc) }
	got1, err := stream.EvalString(ctx())
	if err != nil {
		t.Fatalf("streaming eval: %v", err)
	}
	got2, err := eager.EvalString(ctx())
	if err != nil {
		t.Fatalf("eager eval: %v", err)
	}
	if got1 != got2 {
		t.Errorf("engines disagree:\nstreaming: %.400s\neager:     %.400s", got1, got2)
	}
	if !strings.Contains(got1, `name="partner-0000"`) {
		t.Errorf("missing partner-0000 in output: %.400s", got1)
	}
	if !strings.Contains(got1, "<transport") {
		t.Errorf("missing transport binding in output")
	}

	// The streamed Execute path must agree too (modulo it not re-sorting,
	// which this query doesn't rely on).
	var sb strings.Builder
	if err := stream.Execute(ctx(), &sb); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if sb.String() != got1 {
		a, b := sb.String(), got1
		t.Errorf("Execute output differs from Eval output:\nexec: %.300s\neval: %.300s", a, b)
	}
}

func TestWorkloadGeneratorsDeterministic(t *testing.T) {
	a := workload.DocToXML(workload.Bib(workload.BibConfig{Books: 20, Seed: 7}))
	b := workload.DocToXML(workload.Bib(workload.BibConfig{Books: 20, Seed: 7}))
	if a != b {
		t.Error("Bib generator is not deterministic for equal seeds")
	}
	c := workload.DocToXML(workload.Bib(workload.BibConfig{Books: 20, Seed: 8}))
	if a == c {
		t.Error("Bib generator ignores the seed")
	}

	orders := workload.Orders(workload.OrdersConfig{Lines: 50, Sellers: 5, Seed: 1})
	if n := orders.NumNodes(); n < 300 {
		t.Errorf("orders document too small: %d nodes", n)
	}
	deep := workload.Deep(workload.DeepConfig{Nodes: 500, Seed: 3})
	if n := deep.NumNodes(); n < 500 {
		t.Errorf("deep document too small: %d nodes", n)
	}
}

func TestOrdersQ1(t *testing.T) {
	doc := xqgo.FromStore(workload.Orders(workload.OrdersConfig{Lines: 200, Sellers: 10, Seed: 9}))
	q := xqgo.MustCompile(`
	  for $line in /Order/OrderLine
	  where $line/SellersID eq "1"
	  return <lineItem>{string($line/Item/ID)}</lineItem>`, nil)
	out, err := q.Eval(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out) > 60 {
		t.Errorf("unexpected selectivity: %d matching lines of 200", len(out))
	}
	count := xqgo.MustCompile(`count(/Order/OrderLine[SellersID eq "1"])`, nil)
	cnt, err := count.EvalString(xqgo.NewContext().WithContextNode(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cnt != itoa(len(out)) {
		t.Errorf("predicate count %s != FLWOR count %d", cnt, len(out))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
