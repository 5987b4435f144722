package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"xqgo"
)

// printExplain renders the EXPLAIN ANALYZE report: the optimized plan, the
// optimizer rewrite trace, the per-operator execution statistics collected
// by the profile, the engine-wide counters, and the phase timings.
func printExplain(w io.Writer, q *xqgo.Query, prof *xqgo.Profile, compileTime, execTime time.Duration) {
	rep := prof.Report()

	fmt.Fprintln(w, "-- plan --")
	fmt.Fprintln(w, q.PlanInfo().Text)

	fmt.Fprintln(w, "\n-- rewrites --")
	fires := q.RuleFires()
	if len(fires) == 0 {
		fmt.Fprintln(w, "(no rules fired)")
	} else {
		rules := make([]string, 0, len(fires))
		for r := range fires {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		for _, r := range rules {
			fmt.Fprintf(w, "%s x%d\n", r, fires[r])
		}
		const maxEvents = 20
		for i, ev := range q.RewriteTrace() {
			if i == maxEvents {
				fmt.Fprintf(w, "  ... (%d more)\n", len(q.RewriteTrace())-maxEvents)
				break
			}
			fmt.Fprintf(w, "  [%s] %s => %s\n", ev.Rule, ev.Before, ev.After)
		}
	}

	fmt.Fprintln(w, "\n-- operators --")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\top\tsource\tstarts\titems\ttime")
	for _, op := range rep.Operators {
		detail := op.Kind
		if op.Detail != "" {
			detail += "  " + op.Detail
		}
		fmt.Fprintf(tw, "%d\t%s\t%d:%d\t%d\t%d\t%v\n",
			op.ID, detail, op.Line, op.Col, op.Starts, op.Items,
			time.Duration(op.Nanos).Round(time.Microsecond))
	}
	tw.Flush()
	if len(rep.Operators) == 0 {
		fmt.Fprintln(w, "(no operators ran)")
	}
	fmt.Fprintln(w, "(times are inclusive of nested operators)")

	fmt.Fprintln(w, "\n-- engine counters --")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	c := rep.Counters
	fmt.Fprintf(tw, "xml-tokens\t%d\n", c.XMLTokens)
	fmt.Fprintf(tw, "nodes-materialized\t%d\n", c.NodesMaterialized)
	fmt.Fprintf(tw, "memo-hits\t%d\n", c.MemoHits)
	fmt.Fprintf(tw, "memo-misses\t%d\n", c.MemoMisses)
	fmt.Fprintf(tw, "index-hits\t%d\n", c.IndexHits)
	fmt.Fprintf(tw, "index-builds\t%d\n", c.IndexBuilds)
	fmt.Fprintf(tw, "interrupt-polls\t%d\n", c.InterruptPolls)
	tw.Flush()

	fmt.Fprintln(w, "\n-- timings --")
	fmt.Fprintf(w, "compile %v  execute %v\n",
		compileTime.Round(time.Microsecond), execTime.Round(time.Microsecond))
}
