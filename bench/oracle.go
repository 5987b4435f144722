package main

import (
	"sort"
	"strconv"
	"strings"
)

// refQuery pairs a query text with a plain-Go function that computes its
// result items over the benchmark's own tree of the generated document. The
// functions know the generators' document shapes; they share no code with
// the engine, so a wrong answer from the engine cannot also be the expected
// one.
type refQuery struct {
	name string
	text string
	ref  func(doc *rnode) refResult
}

// refResult is an expected result sequence: each item serialized on its own
// (what one SSE result event carries) and whether the items are atomic
// values, which the XML output method joins with single spaces.
type refResult struct {
	items  []string
	atomic bool
}

func (r refResult) joined() string {
	if r.atomic {
		return strings.Join(r.items, " ")
	}
	return strings.Join(r.items, "")
}

func atom(v int) refResult { return refResult{items: []string{strconv.Itoa(v)}, atomic: true} }

func orderLines(doc *rnode) []*rnode { return doc.first("Order").els("OrderLine") }

func seller(l *rnode) string   { return l.first("SellersID").str() }
func itemID(l *rnode) string   { return l.first("Item").first("ID").str() }
func quantity(l *rnode) string { return l.first("Item").first("Quantity").str() }

// nodesWhere serializes pick(l) for every order line that passes keep.
func nodesWhere(doc *rnode, keep func(l *rnode) bool, pick func(l *rnode) string) refResult {
	var r refResult
	for _, l := range orderLines(doc) {
		if keep(l) {
			r.items = append(r.items, pick(l))
		}
	}
	return r
}

func all(*rnode) bool { return true }

func idXML(l *rnode) string { return l.first("Item").first("ID").xml() }

const paperFLWOR = `for $line in /Order/OrderLine
where $line/SellersID eq "1"
return <lineItem>{string($line/Item/ID)}</lineItem>`

func refPaperFLWOR(doc *rnode) refResult {
	return nodesWhere(doc, func(l *rnode) bool { return seller(l) == "1" },
		func(l *rnode) string { return elem("lineItem", refTextEsc.Replace(itemID(l))) })
}

// Queries over an Orders document.
var (
	qPaper = refQuery{"paper-flwor", paperFLWOR, refPaperFLWOR}
	qIDs   = refQuery{"child-steps", `/Order/OrderLine/Item/ID`,
		func(doc *rnode) refResult { return nodesWhere(doc, all, idXML) }}
	qCountLines = refQuery{"count", `count(/Order/OrderLine)`,
		func(doc *rnode) refResult { return atom(len(orderLines(doc))) }}
	qSumQuantity = refQuery{"sum", `sum(/Order/OrderLine/Item/Quantity)`,
		func(doc *rnode) refResult {
			sum := 0
			for _, l := range orderLines(doc) {
				n, _ := strconv.Atoi(quantity(l))
				sum += n
			}
			return atom(sum)
		}}
	qFirstTen = refQuery{"positional", `(/Order/OrderLine)[position() le 10]/Item/ID`,
		func(doc *rnode) refResult {
			r := nodesWhere(doc, all, idXML)
			r.items = r.items[:min(10, len(r.items))]
			return r
		}}
	qOrderBy = refQuery{"order-by", `for $l in /Order/OrderLine[SellersID eq "3"]
order by $l/Item/ID
return string($l/Item/ID)`,
		func(doc *rnode) refResult {
			r := nodesWhere(doc, func(l *rnode) bool { return seller(l) == "3" }, itemID)
			sort.Strings(r.items)
			r.atomic = true
			return r
		}}
	qConstruct = refQuery{"construct", `<summary lines="{count(/Order/OrderLine)}">{
  for $l in /Order/OrderLine[Item/Quantity = 20]
  return <big id="{$l/Item/ID}" seller="{$l/SellersID}"/>
}</summary>`,
		func(doc *rnode) refResult {
			big := nodesWhere(doc, func(l *rnode) bool { return quantity(l) == "20" },
				func(l *rnode) string { return elem("big", "", "id", itemID(l), "seller", seller(l)) })
			return refResult{items: []string{
				elem("summary", big.joined(), "lines", strconv.Itoa(len(orderLines(doc))))}}
		}}
	qBranch = refQuery{"branching-predicate", `/Order/OrderLine[SellersID = "2" and Item/Quantity = "7"]/Item/ID`,
		func(doc *rnode) refResult {
			return nodesWhere(doc, func(l *rnode) bool { return seller(l) == "2" && quantity(l) == "7" }, idXML)
		}}
	qDate = refQuery{"date", `/Order/date`,
		func(doc *rnode) refResult { return refResult{items: []string{doc.first("Order").first("date").xml()}} }}
	qSeller2 = refQuery{"predicate-path", `/Order/OrderLine[SellersID = "2"]/Item/ID`,
		func(doc *rnode) refResult {
			return nodesWhere(doc, func(l *rnode) bool { return seller(l) == "2" }, idXML)
		}}
	qNotes = refQuery{"notes", `/Order/OrderLine[Item/Quantity = "20"]/Note`,
		func(doc *rnode) refResult {
			return nodesWhere(doc, func(l *rnode) bool { return quantity(l) == "20" },
				func(l *rnode) string { return l.first("Note").xml() })
		}}
	qHits = refQuery{"two-condition-flwor", `for $l in /Order/OrderLine
where $l/SellersID eq "3" and $l/Item/Quantity eq "1"
return <hit>{string($l/Item/ID)}</hit>`,
		func(doc *rnode) refResult {
			return nodesWhere(doc, func(l *rnode) bool { return seller(l) == "3" && quantity(l) == "1" },
				func(l *rnode) string { return elem("hit", refTextEsc.Replace(itemID(l))) })
		}}
	qItems = refQuery{"two-predicates", `/Order/OrderLine[SellersID = "4"][Item/Quantity = "5"]/Item`,
		func(doc *rnode) refResult {
			return nodesWhere(doc, func(l *rnode) bool { return seller(l) == "4" && quantity(l) == "5" },
				func(l *rnode) string { return l.first("Item").xml() })
		}}
	qCountSeller1 = refQuery{"count-predicate", `count(/Order/OrderLine[SellersID = "1"]/Item)`,
		func(doc *rnode) refResult {
			return atom(len(nodesWhere(doc, func(l *rnode) bool { return seller(l) == "1" }, seller).items))
		}}
	qLineIDs = refQuery{"descendant-chain", `count(//OrderLine//ID)`,
		func(doc *rnode) refResult { return atom(len(orderLines(doc))) }}
)

func books(doc *rnode) []*rnode { return doc.first("bib").els("book") }

// Queries over a Bib document.
var (
	qTitles1994 = refQuery{"attribute-predicate", `/bib/book[@year = "1994"]/title`,
		func(doc *rnode) refResult {
			var r refResult
			for _, b := range books(doc) {
				if b.attr("year") == "1994" {
					r.items = append(r.items, b.first("title").xml())
				}
			}
			return r
		}}
	qExpensive = refQuery{"flwor-construct", `for $b in /bib/book
where $b/price > 90
return <exp year="{$b/@year}">{$b/title/text()}</exp>`,
		func(doc *rnode) refResult {
			var r refResult
			for _, b := range books(doc) {
				if p, _ := strconv.ParseFloat(b.first("price").str(), 64); p > 90 {
					r.items = append(r.items, elem("exp", refTextEsc.Replace(b.first("title").str()), "year", b.attr("year")))
				}
			}
			return r
		}}
	qSpringer = refQuery{"count-value-predicate", `count(/bib/book[publisher = "Springer Verlag"])`,
		func(doc *rnode) refResult {
			n := 0
			for _, b := range books(doc) {
				if b.first("publisher").str() == "Springer Verlag" {
					n++
				}
			}
			return atom(n)
		}}
	qThreeAuthors = refQuery{"count-predicate-positional", `/bib/book[count(author) = 3]/author[1]/last`,
		func(doc *rnode) refResult {
			var r refResult
			for _, b := range books(doc) {
				if a := b.els("author"); len(a) == 3 {
					r.items = append(r.items, a[0].first("last").xml())
				}
			}
			return r
		}}
	qYearHistogram = refQuery{"distinct-join", `for $y in distinct-values(/bib/book/@year)[. >= "2000"]
order by $y
return <y v="{$y}" n="{count(/bib/book[@year = $y])}"/>`,
		func(doc *rnode) refResult {
			per := map[string]int{}
			for _, b := range books(doc) {
				if y := b.attr("year"); y >= "2000" {
					per[y]++
				}
			}
			years := make([]string, 0, len(per))
			for y := range per {
				years = append(years, y)
			}
			sort.Strings(years)
			var r refResult
			for _, y := range years {
				r.items = append(r.items, elem("y", "", "v", y, "n", strconv.Itoa(per[y])))
			}
			return r
		}}
)

// chainCount counts the elements named by the last of names that have, for
// each earlier name in turn, a proper ancestor with that name: the result of
// count(//n1//n2//...).
func chainCount(doc *rnode, names ...string) int {
	total := 0
	var visit func(n *rnode, matched int)
	visit = func(n *rnode, matched int) {
		for _, k := range n.kids {
			if k.name == "" {
				continue
			}
			m := matched
			if k.name == names[m] {
				if m == len(names)-1 {
					total++
				} else {
					m++
				}
			}
			// An element matching names[m] deeper down can still extend a
			// shorter prefix, so the furthest prefix is the one to carry.
			visit(k, m)
		}
	}
	visit(doc, 0)
	return total
}

// Queries over a Deep document.
var (
	qChainABC = refQuery{"chain-abc", `count(//a//b//c)`,
		func(doc *rnode) refResult { return atom(chainCount(doc, "a", "b", "c")) }}
	qChainDA = refQuery{"chain-da", `count(//d//a)`,
		func(doc *rnode) refResult { return atom(chainCount(doc, "d", "a")) }}
	qDeep42 = refQuery{"chain-flwor", `for $x in //b//d where $x = "42" return <hit>{string($x)}</hit>`,
		func(doc *rnode) refResult {
			var r refResult
			var visit func(n *rnode, underB bool)
			visit = func(n *rnode, underB bool) {
				for _, k := range n.kids {
					if k.name == "" {
						continue
					}
					if underB && k.name == "d" && k.str() == "42" {
						r.items = append(r.items, elem("hit", "42"))
					}
					visit(k, underB || k.name == "b")
				}
			}
			visit(doc, false)
			return r
		}}
	qShallowPath = refQuery{"predicate-path", `/root/*/*/*/*/*[c]/c`,
		func(doc *rnode) refResult {
			var r refResult
			for _, n := range level(doc.first("root"), 5) {
				if n.has("c") {
					for _, c := range n.els("c") {
						r.items = append(r.items, c.xml())
					}
				}
			}
			return r
		}}
	qShallowFLWOR = refQuery{"flwor", `for $x in /root/*/*/*/* where $x/c return <n k="{count($x/*)}"/>`,
		func(doc *rnode) refResult {
			var r refResult
			for _, n := range level(doc.first("root"), 4) {
				if n.has("c") {
					r.items = append(r.items, elem("n", "", "k", strconv.Itoa(len(n.els("*")))))
				}
			}
			return r
		}}
)

// level returns the elements depth child steps below n, in document order.
func level(n *rnode, depth int) []*rnode {
	cur := []*rnode{n}
	for ; depth > 0; depth-- {
		var next []*rnode
		for _, c := range cur {
			next = append(next, c.els("*")...)
		}
		cur = next
	}
	return cur
}
