package streamexec

import (
	"io"
	"strings"
	"testing"

	"xqgo/internal/projection"
	"xqgo/internal/serializer"
	"xqgo/internal/workload"
	"xqgo/internal/xmlparse"
)

// TestScanAllocGuard bounds the allocations of reading a 7 900-line Orders
// document (about 1 MiB) at a tenth of what encoding/xml's tokenizer cost
// under the same calls: a parse that builds nothing, and a streamed
// execution whose spine keeps one element per line. It counts, not times:
// no wall-clock assertion outside bench/.
func TestScanAllocGuard(t *testing.T) {
	src := workload.DocToXML(workload.Orders(workload.OrdersConfig{Lines: 7900, Sellers: 10, Seed: 1}))
	prog, _, _ := compileStream(t, `/Order/OrderLine/Item/ID`)
	for _, c := range []struct {
		name   string
		run    func() error
		parent float64 // allocations per run with encoding/xml
	}{
		{"scan, nothing built", func() error {
			_, err := xmlparse.Parse(strings.NewReader(src), xmlparse.Options{Projection: projection.New()})
			return err
		}, 316046},
		{"streamed /Order/OrderLine/Item/ID", func() error {
			return Execute(prog, Env{}, strings.NewReader(src), nil,
				serializer.New(io.Discard, serializer.Options{OmitXMLDecl: true}))
		}, 323968},
	} {
		got := testing.AllocsPerRun(3, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run (%d bytes in)", c.name, got, len(src))
		if got > c.parent/10 {
			t.Errorf("%s: a run allocates %.0f times, want at most %.0f (a tenth of %.0f)",
				c.name, got, c.parent/10, c.parent)
		}
	}
}
