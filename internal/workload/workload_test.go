package workload

import (
	"strings"
	"testing"

	"xqgo/internal/xdm"
)

func TestBibShape(t *testing.T) {
	doc := Bib(BibConfig{Books: 10, Seed: 1})
	bib := doc.RootNode().ChildrenOf()[0]
	if bib.NodeName().Local != "bib" {
		t.Fatal("root element")
	}
	books := bib.ChildrenOf()
	if len(books) != 10 {
		t.Fatalf("books = %d", len(books))
	}
	for _, b := range books {
		if b.NodeName().Local != "book" {
			t.Fatal("child kind")
		}
		if len(b.AttributesOf()) != 1 {
			t.Fatal("book must carry @year")
		}
		names := map[string]int{}
		for _, c := range b.ChildrenOf() {
			names[c.NodeName().Local]++
		}
		if names["title"] != 1 || names["publisher"] != 1 || names["price"] != 1 || names["author"] < 1 {
			t.Fatalf("book children = %v", names)
		}
	}
}

func TestOrdersShape(t *testing.T) {
	doc := Orders(OrdersConfig{Lines: 25, Sellers: 3, Seed: 2})
	order := doc.RootNode().ChildrenOf()[0]
	lines := 0
	sellers := map[string]bool{}
	for _, c := range order.ChildrenOf() {
		if c.NodeName().Local != "OrderLine" {
			continue
		}
		lines++
		for _, g := range c.ChildrenOf() {
			if g.NodeName().Local == "SellersID" {
				sellers[g.StringValue()] = true
			}
		}
	}
	if lines != 25 {
		t.Errorf("lines = %d", lines)
	}
	if len(sellers) > 3 {
		t.Errorf("sellers = %d, want <= 3", len(sellers))
	}
}

func TestTradingPartnersShape(t *testing.T) {
	doc := TradingPartners(TPConfig{Partners: 6, Seed: 3})
	wlc := doc.RootNode().ChildrenOf()[0]
	if wlc.NodeName().Local != "wlc" {
		t.Fatal("root")
	}
	partners, agreements, convs := 0, 0, 0
	for _, c := range wlc.ChildrenOf() {
		switch c.NodeName().Local {
		case "trading-partner":
			partners++
			// Every partner has the join triple the customer query needs.
			names := map[string]int{}
			for _, g := range c.ChildrenOf() {
				names[g.NodeName().Local]++
			}
			if names["delivery-channel"] == 0 || names["document-exchange"] == 0 || names["transport"] == 0 {
				t.Errorf("partner lacks join triple: %v", names)
			}
			if names["delivery-channel"] != names["document-exchange"] ||
				names["delivery-channel"] != names["transport"] {
				t.Errorf("triple counts differ: %v", names)
			}
		case "collaboration-agreement":
			agreements++
		case "conversation-definition":
			convs++
		}
	}
	if partners != 6 {
		t.Errorf("partners = %d", partners)
	}
	if agreements == 0 || convs == 0 {
		t.Errorf("agreements = %d, conversations = %d", agreements, convs)
	}
}

func TestDeepRespectsBudgetAndDepth(t *testing.T) {
	doc := Deep(DeepConfig{Nodes: 1000, MaxDepth: 4, Seed: 4})
	maxLevel := int32(0)
	elems := 0
	for id := int32(0); id < int32(doc.NumNodes()); id++ {
		if doc.Kind(id) == xdm.ElementNode {
			elems++
		}
		if doc.Level(id) > maxLevel {
			maxLevel = doc.Level(id)
		}
	}
	if elems < 1000 {
		t.Errorf("elements = %d, want >= 1000", elems)
	}
	if maxLevel > 5 { // document + root + MaxDepth levels
		t.Errorf("max level = %d exceeds depth bound", maxLevel)
	}
}

func TestRepetitiveIsRepetitive(t *testing.T) {
	doc := Repetitive(100, 5)
	if doc.Names.Len() > 10 {
		t.Errorf("distinct names = %d, want few", doc.Names.Len())
	}
	xml := DocToXML(doc)
	if strings.Count(xml, "<record ") != 100 {
		t.Errorf("records = %d", strings.Count(xml, "<record "))
	}
}
