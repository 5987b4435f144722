package runtime

import (
	"sync"
	"testing"

	"xqgo/internal/xqparse"
)

func compileProf(t *testing.T, src string, opts Options) *Prepared {
	t.Helper()
	q, err := xqparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(q, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return p
}

func TestProfileCountsOperators(t *testing.T) {
	p := compileProf(t, `for $b in /bib/book where $b/price > 10 return string($b/title)`, Options{})
	dyn := testDynamic(t)
	prof := p.NewProfile(true)
	dyn.Prof = prof
	if _, err := p.Eval(dyn); err != nil {
		t.Fatal(err)
	}
	rep := prof.Report()
	active := 0
	kinds := map[string]bool{}
	for _, op := range rep.Operators {
		if op.Starts == 0 {
			t.Errorf("reported operator %d (%s) never started", op.ID, op.Kind)
		}
		if op.Items > 0 {
			active++
		}
		kinds[op.Kind] = true
		if op.Line == 0 {
			t.Errorf("operator %d (%s) has no source position", op.ID, op.Kind)
		}
	}
	if active < 3 {
		t.Errorf("profile has %d operators with items, want >= 3:\n%+v", active, rep.Operators)
	}
	if !kinds["flwor"] || !kinds["path"] {
		t.Errorf("profile kinds = %v, want flwor and path", kinds)
	}
	// Timed mode records wall time for at least the outermost operator.
	total := int64(0)
	for _, op := range rep.Operators {
		total += op.Nanos
	}
	if !rep.Timed || total == 0 {
		t.Errorf("timed profile recorded no time (timed=%v, total=%d)", rep.Timed, total)
	}
}

func TestProfileUntouchedWhenOff(t *testing.T) {
	p := compileProf(t, `for $b in /bib/book return $b/title`, Options{})
	// No profile attached: the run must succeed and instrument nothing.
	if _, err := p.Eval(testDynamic(t)); err != nil {
		t.Fatal(err)
	}
	prof := p.NewProfile(false)
	if got := len(prof.Report().Operators); got != 0 {
		t.Errorf("unattached profile reports %d operators", got)
	}
}

// TestProfileConcurrentQueries shares one Profile across parallel executions;
// under -race this proves the per-operator and engine counters are safe, and
// the totals prove no update is lost.
func TestProfileConcurrentQueries(t *testing.T) {
	p := compileProf(t, `for $b in /bib/book return string($b/title)`, Options{})
	prof := p.NewProfile(false)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dyn := testDynamic(t)
			dyn.Prof = prof
			if _, err := p.Eval(dyn); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var flworItems int64
	for _, op := range prof.Report().Operators {
		if op.Kind == "flwor" {
			flworItems = op.Items
		}
	}
	// testBib has 3 books; every one of the 8 runs returns all of them.
	if want := int64(3 * workers); flworItems != want {
		t.Errorf("flwor items = %d, want %d", flworItems, want)
	}
}
