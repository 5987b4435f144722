// Package workload generates the synthetic datasets the experiments run
// on: bibliography documents, Order/OrderLine messages (the paper's running
// Q1 example), WebLogic-style trading-partner configurations (the paper's
// "fraction of a real customer query" input), and deep recursive trees for
// the structural-join experiments. All generators are deterministic given a
// seed, and can emit either a store document directly (fast path for
// benchmarks) or XML text (for parser/end-to-end runs).
package workload

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"xqgo/internal/serializer"
	"xqgo/internal/store"
	"xqgo/internal/xdm"
)

// q is shorthand for a no-namespace QName.
func q(local string) xdm.QName { return xdm.LocalName(local) }

// DocToXML serializes a generated document to XML text.
func DocToXML(d *store.Document) string {
	s, err := serializer.NodeToString(d.RootNode())
	if err != nil {
		panic(err)
	}
	return s
}

// WriteXML writes a generated document as XML text.
func WriteXML(w io.Writer, d *store.Document) error {
	_, err := io.WriteString(w, DocToXML(d))
	return err
}

// ---- bibliography ----

// BibConfig sizes a bibliography document.
type BibConfig struct {
	Books int
	Seed  int64
}

var (
	titleWords = []string{
		"Data", "Web", "Advanced", "TCP/IP", "Streams", "Principles",
		"Modern", "Foundations", "Semistructured", "Query", "Processing",
		"XML", "Systems", "Internals", "Design",
	}
	firstNames = []string{"Serge", "Dan", "Mary", "Divesh", "Jennifer", "Michael", "Daniela", "Don", "Jerome", "Nick"}
	lastNames  = []string{"Abiteboul", "Suciu", "Fernandez", "Srivastava", "Widom", "Franklin", "Florescu", "Chamberlin", "Simeon", "Koudas"}
	publishers = []string{"Addison-Wesley", "Morgan Kaufmann", "Springer Verlag", "O'Reilly", "Prentice Hall"}
)

// Bib generates a bibliography document with n books.
func Bib(cfg BibConfig) *store.Document {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := store.NewBuilder(store.BuilderOptions{URI: fmt.Sprintf("bib-%d.xml", cfg.Books)})
	b.StartDocument()
	b.StartElement(q("bib"))
	for i := 0; i < cfg.Books; i++ {
		b.StartElement(q("book"))
		must(b.Attr(q("year"), fmt.Sprint(1980+rng.Intn(25))))
		b.StartElement(q("title"))
		b.Text(titleWords[rng.Intn(len(titleWords))] + " " +
			titleWords[rng.Intn(len(titleWords))] + " " +
			titleWords[rng.Intn(len(titleWords))])
		b.EndElement()
		for a := 0; a <= rng.Intn(3); a++ {
			b.StartElement(q("author"))
			b.StartElement(q("last"))
			b.Text(lastNames[rng.Intn(len(lastNames))])
			b.EndElement()
			b.StartElement(q("first"))
			b.Text(firstNames[rng.Intn(len(firstNames))])
			b.EndElement()
			b.EndElement()
		}
		b.StartElement(q("publisher"))
		b.Text(publishers[rng.Intn(len(publishers))])
		b.EndElement()
		b.StartElement(q("price"))
		b.Text(fmt.Sprintf("%d.%02d", 20+rng.Intn(80), rng.Intn(100)))
		b.EndElement()
		b.EndElement()
	}
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// ---- orders (the Q1 message workload) ----

// OrdersConfig sizes an Order message document.
type OrdersConfig struct {
	Lines   int // OrderLine elements
	Sellers int // distinct SellersID values (selectivity control)
	Seed    int64
}

// Orders generates one Order document with cfg.Lines OrderLine children —
// the shape of the paper's example query Q1:
//
//	for $line in $doc/Order/OrderLine
//	where $line/SellersID eq 1
//	return <lineItem>{$line/Item/ID}</lineItem>
func Orders(cfg OrdersConfig) *store.Document {
	if cfg.Sellers <= 0 {
		cfg.Sellers = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := store.NewBuilder(store.BuilderOptions{URI: fmt.Sprintf("order-%d.xml", cfg.Lines)})
	b.StartDocument()
	b.StartElement(q("Order"))
	must(b.Attr(q("id"), fmt.Sprint(4711+cfg.Seed)))
	b.StartElement(q("date"))
	b.Text("2003-08-19")
	b.EndElement()
	for i := 0; i < cfg.Lines; i++ {
		b.StartElement(q("OrderLine"))
		b.StartElement(q("SellersID"))
		b.Text(fmt.Sprint(1 + rng.Intn(cfg.Sellers)))
		b.EndElement()
		b.StartElement(q("Item"))
		b.StartElement(q("ID"))
		b.Text(fmt.Sprintf("SKU-%06d", rng.Intn(1_000_000)))
		b.EndElement()
		b.StartElement(q("Quantity"))
		b.Text(fmt.Sprint(1 + rng.Intn(20)))
		b.EndElement()
		b.EndElement()
		b.StartElement(q("Note"))
		b.Text("deliver to dock " + fmt.Sprint(rng.Intn(40)))
		b.EndElement()
		b.EndElement()
	}
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// ---- deep trees for structural joins ----

// DeepConfig controls the recursive tree generator.
type DeepConfig struct {
	// Nodes is the approximate element count.
	Nodes int
	// MaxDepth bounds nesting.
	MaxDepth int
	// Names are the element names drawn from (weighted uniformly).
	Names []string
	// Fanout is the mean children per element.
	Fanout int
	Seed   int64
}

// Deep generates a recursive document where the Names elements nest freely,
// producing the ancestor/descendant distributions structural joins care
// about.
func Deep(cfg DeepConfig) *store.Document {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 12
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 4
	}
	if len(cfg.Names) == 0 {
		cfg.Names = []string{"a", "b", "c", "d"}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := store.NewBuilder(store.BuilderOptions{URI: fmt.Sprintf("deep-%d.xml", cfg.Nodes)})
	b.StartDocument()
	b.StartElement(q("root"))
	budget := cfg.Nodes
	var gen func(depth int)
	gen = func(depth int) {
		if budget <= 0 || depth >= cfg.MaxDepth {
			return
		}
		kids := 1 + rng.Intn(cfg.Fanout*2-1)
		for i := 0; i < kids && budget > 0; i++ {
			budget--
			name := cfg.Names[rng.Intn(len(cfg.Names))]
			b.StartElement(q(name))
			if rng.Intn(4) == 0 {
				b.Text(fmt.Sprint(rng.Intn(1000)))
			} else {
				gen(depth + 1)
			}
			b.EndElement()
		}
	}
	for budget > 0 {
		gen(1)
	}
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// ---- repetitive document for pooling experiments ----

// Repetitive generates a document with few distinct names and values —
// the best case for dictionary pooling (E9).
func Repetitive(records int, seed int64) *store.Document {
	rng := rand.New(rand.NewSource(seed))
	statuses := []string{"ACTIVE", "INACTIVE", "PENDING"}
	b := store.NewBuilder(store.BuilderOptions{URI: "repetitive.xml"})
	b.StartDocument()
	b.StartElement(q("records"))
	for i := 0; i < records; i++ {
		b.StartElement(q("record"))
		must(b.Attr(q("status"), statuses[rng.Intn(len(statuses))]))
		must(b.Attr(q("region"), fmt.Sprintf("region-%d", rng.Intn(5))))
		b.StartElement(q("kind"))
		b.Text("standard")
		b.EndElement()
		b.StartElement(q("owner"))
		b.Text(lastNames[rng.Intn(4)])
		b.EndElement()
		b.EndElement()
	}
	b.EndElement()
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Names joins generator names for reporting.
func Names(names ...string) string { return strings.Join(names, ",") }
