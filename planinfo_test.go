package xqgo_test

import (
	"fmt"
	"strings"
	"testing"

	"xqgo"
	"xqgo/internal/structjoin"
	"xqgo/internal/workload"
)

func renderPlan(ops []*xqgo.PlanOperator, indent int, sb *strings.Builder) {
	for _, op := range ops {
		fmt.Fprintf(sb, "%s%d:%s", strings.Repeat("  ", indent), op.ID, op.Kind)
		if op.Strategy != "" {
			fmt.Fprintf(sb, "[%s]", op.Strategy)
		}
		sb.WriteByte('\n')
		renderPlan(op.Children, indent+1, sb)
	}
}

func planShape(q *xqgo.Query) string {
	var sb strings.Builder
	renderPlan(q.PlanInfo().Operators, 0, &sb)
	return sb.String()
}

// TestPlanInfoGolden pins the structured plan for a representative query:
// stable operator ids, the operator tree shape, and the per-path strategy
// annotation. A failure here means the public introspection surface moved —
// update the golden only for a deliberate plan change.
func TestPlanInfoGolden(t *testing.T) {
	q := xqgo.MustCompile(
		`for $x in //a//b where count($x/c) > 0 return <hit>{count(//a//b//c)}</hit>`,
		nil)
	info := q.PlanInfo()
	if info.Strategy != "auto" {
		t.Errorf("plan strategy = %q, want auto", info.Strategy)
	}
	// Join-eligible chains (//a//b and //a//b//c) are policy "auto"; their
	// nested per-step sub-paths and the non-eligible $x/c are "navigation".
	got := planShape(q)
	want := strings.TrimLeft(`
13:flwor
  3:path[auto]
    2:path[navigation]
      1:path[navigation]
        0:path[navigation]
  5:call fn:count
    4:path[navigation]
  12:call fn:count
    11:path[auto]
      10:path[navigation]
        9:path[auto]
          8:path[navigation]
            7:path[navigation]
              6:path[navigation]
`, "\n")
	if got != want {
		t.Errorf("plan shape mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

// Forced strategies show up on the plan-level field and on each
// join-eligible path operator.
func TestPlanInfoStrategyAnnotation(t *testing.T) {
	for _, c := range []struct {
		strategy xqgo.Strategy
		want     string
	}{
		{xqgo.StrategyAuto, "auto"},
		{xqgo.ForceNavigation, "navigation"},
		{xqgo.ForceBinaryJoin, "binary-join"},
		{xqgo.ForceTwig, "twig-join"},
	} {
		q := xqgo.MustCompile(`count(//a//b)`, &xqgo.Options{Strategy: c.strategy})
		info := q.PlanInfo()
		if info.Strategy != c.want {
			t.Errorf("%v: plan strategy = %q, want %q", c.strategy, info.Strategy, c.want)
		}
		var pathOps []*xqgo.PlanOperator
		var walk func(ops []*xqgo.PlanOperator)
		walk = func(ops []*xqgo.PlanOperator) {
			for _, op := range ops {
				if op.Kind == "path" {
					pathOps = append(pathOps, op)
				}
				walk(op.Children)
			}
		}
		walk(info.Operators)
		if len(pathOps) == 0 {
			t.Fatalf("%v: no path operator in plan", c.strategy)
		}
		// The outermost chain is join-eligible and must carry the policy;
		// nested per-step sub-paths are never join-shaped and stay
		// "navigation".
		carriers := 0
		for _, op := range pathOps {
			switch op.Strategy {
			case c.want:
				carriers++
			case "navigation": // non-eligible sub-path
			default:
				t.Errorf("%v: path op %d has stray strategy %q", c.strategy, op.ID, op.Strategy)
			}
		}
		if carriers == 0 {
			t.Errorf("%v: no path op carries policy %q", c.strategy, c.want)
		}
	}
}

// Auto's choice, both sides of it, read off the profile's operator row with
// no timing involved. The index is seeded, as xqd does for catalog documents:
// a deep chain runs the holistic twig join, a top-heavy chain (many a, few b:
// the path stack would push every a) runs the binary join, and a 20-node
// document navigates because the fixed cost of an index plan outweighs it.
func TestAutoStrategyChoice(t *testing.T) {
	// 10 000 a, every hundredth with a b child.
	topHeavy := "<r>" + strings.Repeat("<a><b/></a>"+strings.Repeat("<a/>", 99), 100) + "</r>"
	for _, c := range []struct {
		name, query string
		doc         *xqgo.Document
		want        string
	}{
		{"deep chain", `count(//a//b//c)`,
			xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 60000, MaxDepth: 40, Fanout: 2, Seed: 3})), "twig-join"},
		{"top-heavy chain", `count(//a//b)`, xqgo.MustParseString(topHeavy, "mem:top-heavy"), "binary-join"},
		{"20-node document", `count(//a//b)`, xqgo.MustParseString("<r>"+strings.Repeat("<a><b/></a>", 9)+"</r>", "mem:small"), "navigation"},
	} {
		q := xqgo.MustCompile(c.query, nil)
		prof := q.NewCountersProfile()
		ctx := xqgo.NewContext().WithContextNode(c.doc).WithProfile(prof).
			SeedIndex(c.doc, structjoin.BuildIndex(c.doc.Store()))
		if _, err := q.EvalString(ctx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		for _, row := range prof.Report().Operators {
			if row.Kind == "path" && row.Strategy != "" {
				got = append(got, row.Strategy)
			}
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: Auto resolved %s to %v, want %s", c.name, c.query, got, c.want)
		}
	}
}

// Operator ids in PlanInfo are the same stable ids profile rows carry: every
// profiled operator must be addressable in the plan tree, and the profile's
// run-time strategy must agree with what the plan promised for forced
// strategies.
func TestPlanInfoIDsMatchProfile(t *testing.T) {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 3000, Seed: 6}))
	q := xqgo.MustCompile(`count(//a//b)`, &xqgo.Options{Strategy: xqgo.ForceTwig})
	byID := map[int]*xqgo.PlanOperator{}
	var walk func(ops []*xqgo.PlanOperator)
	walk = func(ops []*xqgo.PlanOperator) {
		for _, op := range ops {
			byID[op.ID] = op
			walk(op.Children)
		}
	}
	walk(q.PlanInfo().Operators)

	prof := q.NewCountersProfile()
	ctx := xqgo.NewContext().WithContextNode(doc).WithProfile(prof)
	if _, err := q.EvalString(ctx); err != nil {
		t.Fatal(err)
	}
	for _, row := range prof.Report().Operators {
		op, ok := byID[row.ID]
		if !ok {
			t.Errorf("profile op %d (%s) missing from PlanInfo tree", row.ID, row.Kind)
			continue
		}
		if op.Kind != row.Kind {
			t.Errorf("op %d kind: plan %q vs profile %q", row.ID, op.Kind, row.Kind)
		}
		if row.Kind == "path" && row.Strategy != "" && row.Strategy != "twig-join" {
			t.Errorf("op %d ran with strategy %q despite ForceTwig", row.ID, row.Strategy)
		}
	}
}
