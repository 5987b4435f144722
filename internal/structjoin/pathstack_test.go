package structjoin

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xqgo/internal/store"
	"xqgo/internal/workload"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
)

func mustParse(t *testing.T, xml string) *store.Document {
	t.Helper()
	doc, err := xmlparse.ParseString(xml, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// binaryChain is the reference semantics for PathMatchLeaf: the chain
// evaluated edge by edge as binary stack-tree joins, projecting distinct
// descendants between steps. A child edge on the first step keeps the
// children of the document node.
func binaryChain(lists []List, childEdge []bool) List {
	cur := lists[0]
	if childEdge[0] {
		cur = nil
		for _, p := range lists[0] {
			if p.Region.Level == 1 {
				cur = append(cur, p)
			}
		}
	}
	for i := 1; i < len(lists); i++ {
		cur = DistinctDescendants(StackTreeDesc(cur, lists[i], childEdge[i]))
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func sameList(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPathMatchLeafMatchesBinaryPlan: the holistic path join must return
// byte-identical leaf postings to the chained binary plan on every chain
// shape, including child edges and self-chains, across generated documents.
func TestPathMatchLeafMatchesBinaryPlan(t *testing.T) {
	chains := []struct {
		names []string
		child []bool // child[0] unused
	}{
		{[]string{"a", "b"}, []bool{false, false}},
		{[]string{"a", "b", "c"}, []bool{false, false, false}},
		{[]string{"a", "b", "c"}, []bool{false, false, true}},
		{[]string{"a", "b", "c"}, []bool{false, true, false}},
		{[]string{"a", "b", "c", "d"}, []bool{false, false, true, false}},
		// Self-chains: strict containment must reject the same node as its
		// own ancestor, and a//a/a mixes both edge kinds over one list.
		{[]string{"a", "a"}, []bool{false, false}},
		{[]string{"a", "a", "a"}, []bool{false, false, true}},
	}
	docs := []workload.DeepConfig{
		{Nodes: 2000, Seed: 1},
		{Nodes: 6000, MaxDepth: 30, Fanout: 2, Seed: 2},
		{Nodes: 6000, MaxDepth: 5, Fanout: 20, Seed: 3},
		{Nodes: 6000, Names: []string{"a", "a", "a", "b", "z"}, Seed: 4},
	}
	for di, cfg := range docs {
		idx := BuildIndex(workload.Deep(cfg))
		for _, ch := range chains {
			lists := make([]List, len(ch.names))
			for i, n := range ch.names {
				lists[i] = idx.Elements(xdm.LocalName(n))
			}
			want := binaryChain(lists, ch.child)
			got := PathMatchLeaf(lists, ch.child)
			if !sameList(got, want) {
				t.Errorf("doc %d chain %v child %v: twig %d postings != binary %d",
					di, ch.names, ch.child, len(got), len(want))
			}
		}
	}
}

// TestPathMatchLeafClosedSibling pins the stale-stack regression: a closed
// b sibling below a still-open deeper b must not satisfy a child edge for
// a c whose real parent is neither.
//
//	<root>
//	  <a>
//	    <b/>              b1: closed before c starts, at c's parent level
//	    <x><x><b>         b2: open, contains c, but two levels up
//	      <x><c/></x>
//	    </b></x></x>
//	  </a>
//	</root>
func TestPathMatchLeafClosedSibling(t *testing.T) {
	doc := mustParse(t, `<root><a><b/><x><x><b><x><c/></x></b></x></x></a></root>`)
	idx := BuildIndex(doc)
	lists := []List{
		idx.Elements(xdm.LocalName("a")),
		idx.Elements(xdm.LocalName("b")),
		idx.Elements(xdm.LocalName("c")),
	}
	if got := PathMatchLeaf(lists, []bool{false, false, true}); len(got) != 0 {
		t.Errorf("a//b/c matched %d leaves; c's parent is x, want 0", len(got))
	}
	if got := PathMatchLeaf(lists, []bool{false, false, false}); len(got) != 1 {
		t.Errorf("a//b//c matched %d leaves, want 1", len(got))
	}
}

// TestPathMatchLeafStackBound pins the stack invariant on the top-heavy
// shape: 10 000 a, every hundredth with a b child. A stack that kept its
// closed entries would hold every a (about 1.3 MB of pushes); popping them
// before each push keeps it one entry deep.
func TestPathMatchLeafStackBound(t *testing.T) {
	doc := mustParse(t, "<r>"+strings.Repeat("<a><b/></a>"+strings.Repeat("<a/>", 99), 100)+"</r>")
	idx := BuildIndex(doc)
	lists := []List{idx.Elements(xdm.LocalName("a")), idx.Elements(xdm.LocalName("b"))}
	child := []bool{false, false}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got := PathMatchLeaf(lists, child)
	runtime.ReadMemStats(&after)

	if want := lists[1]; !sameList(got, want) {
		t.Fatalf("a//b matched %d leaves, want all %d b", len(got), len(want))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("PathMatchLeaf allocated %d bytes on the top-heavy shape, want < 64 KiB", alloc)
	}
}

// decodeFuzzChain reads a chain and a document from fuzz bytes over the
// alphabet {a, b, c}, so self-chains occur. Byte 0 gives the chain length
// ('2', '3', '4'); the next bytes are its steps, a lower-case name for a
// descendant edge and an upper-case one for a child edge; the rest is the
// tree, where ')' closes the open element and any other byte opens one.
func decodeFuzzChain(data []byte) (names []string, child []bool, xml string, ok bool) {
	if len(data) < 1 {
		return nil, nil, "", false
	}
	k := 2 + int(data[0]-'2')%3
	if len(data) < 1+k {
		return nil, nil, "", false
	}
	for _, b := range data[1 : 1+k] {
		names = append(names, fuzzName(b))
		child = append(child, b&0x20 == 0)
	}
	return names, child, fuzzTree(data[1+k:]), true
}

// fuzzName maps a fuzz byte to a name of the alphabet {a, b, c}.
func fuzzName(b byte) string { return string("abc"[int((b|0x20)-'a')%3]) }

// fuzzTree reads a document under <r> from at most 300 fuzz bytes: ')'
// closes the open element and any other byte opens one, named by fuzzName.
func fuzzTree(data []byte) string {
	var sb strings.Builder
	var open []string
	sb.WriteString("<r>")
	for i, b := range data {
		if i == 300 {
			break
		}
		if b == ')' {
			if len(open) > 0 {
				sb.WriteString("</" + open[len(open)-1] + ">")
				open = open[:len(open)-1]
			}
			continue
		}
		name := fuzzName(b)
		open = append(open, name)
		sb.WriteString("<" + name + ">")
	}
	for i := len(open) - 1; i >= 0; i-- {
		sb.WriteString("</" + open[i] + ">")
	}
	sb.WriteString("</r>")
	return sb.String()
}

// decodeFuzzTwig reads a twig pattern and a document from fuzz bytes. Byte 0
// gives the pattern size ('1' to '4' nodes), byte 1 the root's name; each
// further node is a digit naming its parent among the nodes read so far and
// a name, lower-case for a descendant edge and upper-case for a child edge.
// The rest is the tree, as fuzzTree reads it.
func decodeFuzzTwig(data []byte) (root *TwigNode, xml string, ok bool) {
	if len(data) < 2 {
		return nil, "", false
	}
	k := 1 + int(data[0]-'1')%4
	if len(data) < 2*k {
		return nil, "", false
	}
	nodes := []*TwigNode{{Name: xdm.LocalName(fuzzName(data[1]))}}
	for i := 1; i < k; i++ {
		p, b := data[2*i], data[2*i+1]
		n := &TwigNode{Name: xdm.LocalName(fuzzName(b)), ChildEdge: b&0x20 == 0}
		parent := nodes[int(p-'0')%i]
		parent.Children = append(parent.Children, n)
		nodes = append(nodes, n)
	}
	return nodes[0], fuzzTree(data[2*k:]), true
}

// FuzzTwig: on any small tree and any twig of at most four nodes, with
// branches, child and descendant edges and repeated names, the holistic
// join's merged embedding count is the navigation ground truth; on a linear
// pattern every path solution is an embedding.
func FuzzTwig(f *testing.F) {
	// a[b//c]//d's trailing-branch shape with d spelled a: the a postings
	// after the last c still match under the stacked a.
	f.Add([]byte("4a0b1c0a" + "abaca)))))"))
	// a[b]/c over nested and sibling branches.
	f.Add([]byte("3a0b0C" + "abc)ab)c))ac)b)))"))
	// Self-twigs: a[a]//a and a/a//a.
	f.Add([]byte("3a0a0a" + "aaa)a)))aa))"))
	f.Add([]byte("3a0A1a" + "aaa)a)))aa))a)"))
	// A single node, and a pattern whose names the tree lacks.
	f.Add([]byte("1b" + "ab)b))"))
	f.Add([]byte("2a0c" + "ab)ba))"))
	f.Fuzz(func(t *testing.T, data []byte) {
		root, xml, ok := decodeFuzzTwig(data)
		if !ok {
			return
		}
		doc := mustParse(t, xml)
		st := TwigStack(root, BuildIndex(doc))
		if want := NavTwigCount(root, doc); st.Matches != want {
			t.Errorf("twig %s over %s: matches %d, navigation %d", root, xml, st.Matches, want)
		}
		linear := true
		for n := root; linear && len(n.Children) > 0; n = n.Children[0] {
			linear = len(n.Children) == 1
		}
		if linear && st.PathSolutions != st.Matches {
			t.Errorf("linear twig %s over %s: path solutions %d, matches %d", root, xml, st.PathSolutions, st.Matches)
		}
	})
}

// FuzzPathMatchLeaf: on any small tree and any 2–4-step chain with child
// and descendant edges, the holistic path join returns exactly what the
// chain evaluated edge by edge with binary stack-tree joins returns, and a
// cursor drained in batches of a fuzzed size from 1 to 130 resumes where
// each batch stopped: it yields the ids of a one-shot drain.
func FuzzPathMatchLeaf(f *testing.F) {
	// The closed-sibling shape of TestPathMatchLeafClosedSibling with x
	// spelled a, under a//b/c and a//b//c.
	f.Add([]byte("3abC"+"ab)aabac))))))"), uint8(0))
	f.Add([]byte("3abc"+"ab)aabac))))))"), uint8(1))
	// The top-heavy shape of TestPathMatchLeafStackBound, scaled down.
	f.Add([]byte("2ab"+strings.Repeat("ab))"+strings.Repeat("a)", 9), 10)), uint8(2))
	// Self-chains over nested and sibling a.
	f.Add([]byte("3aaA"+"aaa)a)))aa))"), uint8(0))
	f.Add([]byte("4aBcA"+"abca)b)c)))abc)))"), uint8(129))
	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		names, child, xml, ok := decodeFuzzChain(data)
		if !ok {
			return
		}
		idx := BuildIndex(mustParse(t, xml))
		lists := make([]List, len(names))
		for i, n := range names {
			lists[i] = idx.Elements(xdm.LocalName(n))
		}
		want := binaryChain(lists, child)
		if got := PathMatchLeaf(lists, child); !sameList(got, want) {
			t.Errorf("chain %v child %v over %s: twig %d postings != binary %d",
				names, child, xml, len(got), len(want))
		}
		once := make([]int32, len(lists[len(lists)-1])+1)
		c := NewPathCursor(lists, child)
		once = once[:c.Next(once)]
		if n := c.Next(make([]int32, 1)); n != 0 {
			t.Fatalf("chain %v over %s: %d ids after the one-shot drain", names, xml, n)
		}
		size := 1 + int(batch)%130
		var resumed []int32
		buf := make([]int32, size, size+8) // Next fills the length, not the capacity
		for c := NewPathCursor(lists, child); ; {
			n := c.Next(buf)
			if n == 0 {
				break
			}
			if n > size {
				t.Fatalf("a batch of %d took %d ids", size, n)
			}
			resumed = append(resumed, buf[:n]...)
		}
		if fmt.Sprint(resumed) != fmt.Sprint(once) {
			t.Errorf("chain %v child %v over %s, batches of %d: %v, one-shot %v",
				names, child, xml, size, resumed, once)
		}
	})
}

func TestPathMatchLeafDegenerate(t *testing.T) {
	idx := BuildIndex(workload.Deep(workload.DeepConfig{Nodes: 500, Seed: 5}))
	a := idx.Elements(xdm.LocalName("a"))
	if got := PathMatchLeaf(nil, nil); got != nil {
		t.Errorf("empty chain: %v", got)
	}
	if got := PathMatchLeaf([]List{a}, []bool{false}); !sameList(got, a) {
		t.Error("single-step chain must copy the list through")
	}
	if got := PathMatchLeaf([]List{a, nil}, []bool{false, false}); len(got) != 0 {
		t.Errorf("empty leaf list: %d postings", len(got))
	}
	if got := PathMatchLeaf([]List{nil, a}, []bool{false, false}); len(got) != 0 {
		t.Errorf("empty root list: %d postings", len(got))
	}
}

func BenchmarkPathMatchLeafVsBinary(b *testing.B) {
	idx := BuildIndex(workload.Deep(workload.DeepConfig{
		Nodes: 60000, MaxDepth: 40, Fanout: 2, Seed: 3}))
	lists := []List{
		idx.Elements(xdm.LocalName("a")),
		idx.Elements(xdm.LocalName("b")),
		idx.Elements(xdm.LocalName("c")),
	}
	child := []bool{false, false, false}
	for _, algo := range []struct {
		name string
		fn   func() List
	}{
		{"twig", func() List { return PathMatchLeaf(lists, child) }},
		{"binary", func() List { return binaryChain(lists, child) }},
	} {
		b.Run(fmt.Sprintf("%s/a-b-c", algo.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.fn()
			}
		})
	}
}
