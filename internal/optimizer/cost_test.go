package optimizer

import (
	"testing"

	"xqgo/internal/xqparse"
)

// The decision table the runtime's pathDecision relies on: each entry is a
// document/chain shape with a known winner. Costs are abstract, so the test
// pins choices (the contract), not absolute numbers.
func TestEstimateChainDecisions(t *testing.T) {
	cases := []struct {
		name string
		cs   ChainStats
		want Strategy
	}{
		{
			// Deep 60k-node document, three well-populated steps: navigation
			// touches every node per step — the holistic join wins.
			name: "deep chain picks twig",
			cs: ChainStats{
				DocNodes: 60000, AvgDepth: 12, Observed: -1,
				Steps: []ChainStep{{Postings: 15000}, {Postings: 15000}, {Postings: 15000}},
			},
			want: StrategyTwigJoin,
		},
		{
			// Tiny document: the fixed index-plan setup cost outweighs any
			// join advantage; stay on navigation.
			name: "tiny doc picks navigation",
			cs: ChainStats{
				DocNodes: 60, AvgDepth: 4, Observed: -1,
				Steps: []ChainStep{{Postings: 15}, {Postings: 15}},
			},
			want: StrategyNavigation,
		},
		{
			// Top-heavy chain: a huge first list joined against a small one.
			// The path join reads each posting once; navigation walks the
			// document once per step.
			name: "top-heavy chain picks twig",
			cs: ChainStats{
				DocNodes: 20000, AvgDepth: 4, Observed: -1,
				Steps: []ChainStep{{Postings: 10000}, {Postings: 100}},
			},
			want: StrategyTwigJoin,
		},
		{
			name: "empty chain guards to navigation",
			cs:   ChainStats{DocNodes: 1000, AvgDepth: 4, Observed: -1},
			want: StrategyNavigation,
		},
	}
	for _, c := range cases {
		est := EstimateChain(c.cs)
		if est.Choice != c.want {
			t.Errorf("%s: chose %v (nav %.0f, twig %.0f), want %v",
				c.name, est.Choice, est.Navigation, est.TwigJoin, c.want)
		}
	}
}

// Observed cardinality from a prior run replaces the static output estimate
// and can flip the choice: on a small document the static walk expects
// enough output to justify the index plan, but an observed-empty result
// makes navigation's higher per-item cost irrelevant.
func TestEstimateChainFeedbackFlip(t *testing.T) {
	cs := ChainStats{
		DocNodes: 100, AvgDepth: 3, Observed: -1,
		Steps: []ChainStep{{Postings: 20}, {Postings: 20}},
	}
	static := EstimateChain(cs)
	if static.Choice != StrategyTwigJoin {
		t.Fatalf("static choice = %v (nav %.0f, twig %.0f), want twig",
			static.Choice, static.Navigation, static.TwigJoin)
	}
	cs.Observed = 0
	fed := EstimateChain(cs)
	if fed.Choice != StrategyNavigation {
		t.Errorf("observed-empty choice = %v (nav %.0f, twig %.0f), want navigation",
			fed.Choice, fed.Navigation, fed.TwigJoin)
	}
	if fed.Output != 0 {
		t.Errorf("Output = %.1f, want the observed cardinality 0", fed.Output)
	}
}

// A cached index removes exactly the build term from the join and never
// changes navigation.
func TestEstimateChainIndexReady(t *testing.T) {
	cs := ChainStats{
		DocNodes: 5000, AvgDepth: 6, Observed: -1,
		Steps: []ChainStep{{Postings: 1000}, {Postings: 1000}},
	}
	cold := EstimateChain(cs)
	cs.IndexReady = true
	warm := EstimateChain(cs)
	if warm.Navigation != cold.Navigation {
		t.Errorf("navigation cost moved with index readiness: %.0f vs %.0f",
			warm.Navigation, cold.Navigation)
	}
	wantDelta := float64(cs.DocNodes) // costBuild per node
	if d := cold.TwigJoin - warm.TwigJoin; d != wantDelta {
		t.Errorf("twig build delta = %.0f, want %.0f", d, wantDelta)
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		StrategyAuto:       "auto",
		StrategyNavigation: "navigation",
		StrategyTwigJoin:   "twig-join",
		Strategy(3):        "unknown",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("Strategy(%d).String() = %q, want %q", s, got, w)
		}
	}
}

// The static rule every operator no statistics price is reported with:
// literal ranges and literal sequences count exactly, otherwise the
// inferred occurrence indicator decides.
func TestEstimateItems(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`1 to 5`, 5},
		{`10 to 1`, 0},
		{`(1, 2, 3)`, 3},
		{`()`, 0},
		{`(1 to 4, 7)`, 5},
		{`$x treat as xs:integer?`, 1}, // T?
		{`if ($c) then 1 else ()`, 1},  // T?
		{`$x/b`, estFanout},            // T*
	}
	for _, c := range cases {
		q, err := xqparse.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := EstimateItems(q.Body); got != c.want {
			t.Errorf("EstimateItems(%s) = %d, want %d", c.src, got, c.want)
		}
	}
}
