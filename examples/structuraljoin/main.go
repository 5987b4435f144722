// Structural joins: the second pillar of the reproduction — region-labeled
// name indexes and stack-based join algorithms versus navigation, plus the
// engine-integrated join strategies (Options.Strategy).
package main

import (
	"fmt"
	"log"
	"time"

	"xqgo"
	"xqgo/internal/workload"
)

func main() {
	doc := xqgo.FromStore(workload.Deep(workload.DeepConfig{Nodes: 50000, Seed: 2}))
	fmt.Printf("recursive document: %d nodes\n\n", doc.NumNodes())

	// Build the name index once (one scan of the document).
	t0 := time.Now()
	idx := doc.BuildIndex()
	fmt.Printf("index build: %v\n\n", time.Since(t0))

	// The same a//b join with three algorithms.
	for _, alg := range []struct {
		name string
		kind xqgo.JoinAlgorithm
	}{
		{"stack-tree ", xqgo.StackTree},
		{"tree-merge ", xqgo.TreeMerge},
		{"navigation ", xqgo.Navigation},
	} {
		t0 = time.Now()
		nodes := idx.Descendants("a", "b", alg.kind)
		fmt.Printf("a//b via %s %6d nodes in %v\n", alg.name, len(nodes), time.Since(t0))
	}

	// Holistic twig joins bound their intermediate results by construction.
	fmt.Println()
	for _, pat := range []string{"a//b", "a//b//c", "a[b]//c", "a[b//c]//d"} {
		stats, err := idx.CountTwig(pat)
		if err != nil {
			log.Fatal(err)
		}
		nav, err := idx.CountTwigNavigation(pat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("twig %-12s path solutions %8d  matches %10d  (navigation ground truth: %d)\n",
			pat, stats.PathSolutions, stats.Matches, nav)
	}

	// The engine-level integration: the same XQuery, navigation vs indexed.
	fmt.Println()
	query := `count(//a//b)`
	nav := xqgo.MustCompile(query, &xqgo.Options{Strategy: xqgo.ForceNavigation})
	indexed := xqgo.MustCompile(query, &xqgo.Options{Strategy: xqgo.ForceTwig})

	ctx := xqgo.NewContext().WithContextNode(doc)
	t0 = time.Now()
	out, err := nav.EvalString(ctx)
	if err != nil {
		log.Fatal(err)
	}
	tNav := time.Since(t0)

	ctxIdx := xqgo.NewContext().WithContextNode(doc)
	indexed.Eval(ctxIdx) // first run builds + caches the index
	t0 = time.Now()
	out2, err := indexed.EvalString(ctxIdx)
	if err != nil {
		log.Fatal(err)
	}
	tIdx := time.Since(t0)

	if out != out2 {
		log.Fatalf("engines disagree: %s vs %s", out, out2)
	}
	fmt.Printf("engine %s = %s\n", query, out)
	fmt.Printf("  navigation: %v\n", tNav)
	fmt.Printf("  indexed:    %v  (%.0fx faster, index cached per document)\n",
		tIdx, float64(tNav)/float64(tIdx))
}
