package store

import (
	"sync"

	"xqgo/internal/xdm"
)

// Lazy (demand-driven) documents. An under-construction document carries a
// frontier: the builder-side state of an incremental parse plus the advance
// hook that parses one more increment. Accessors that could observe
// not-yet-final array slots drive the frontier forward before reading —
// navigation pulls expand the document exactly as far as the query demands
// (the paper's "parse on demand" ingestion).
//
// Invariants:
//
//   - A node id that exists (id < len(kind)) has final kind, name, value,
//     parent and level: those fields are written once at append time.
//   - An element's endID, firstChild and a node's nextSib are final only
//     once the element (resp. the parent) is closed; until then reading
//     them requires advancing the parse.
//   - Attributes are appended in the same increment as their owner element,
//     so an element that exists has its full attribute range.
//   - All array mutation happens with the frontier mutex held; readers
//     either observe feed == nil (construction finished, arrays immutable —
//     the lock-free fast path) or take the same mutex. The feed pointer is
//     cleared with an atomic store after the final mutation, so fast-path
//     readers are properly ordered.
//
// A parse failure is sticky: the first error aborts the increment, and
// every subsequent demand that cannot be satisfied from already-built
// nodes panics with Abort wrapping it. The runtime's engine boundaries
// recover Abort (it implements error) and surface it as the execution
// error — identical to how streamed-construction errors already travel.

// Abort is panicked out of lazy-document accessors when demand-driven
// parsing fails.
type Abort struct{ Err error }

func (a Abort) Error() string { return a.Err.Error() }
func (a Abort) Unwrap() error { return a.Err }

// frontier is the parse frontier of an under-construction document.
type frontier struct {
	mu   sync.Mutex
	d    *Document
	b    *Builder
	adv  func() (done bool, err error) // parse one increment
	done bool
	err  error // sticky
}

// BeginLazy marks the builder's document as under construction: advance is
// called (one increment at a time) whenever an accessor needs more of the
// document. The returned document is usable immediately; advance must
// finalize the build (Builder.Done) on its last increment.
func BeginLazy(b *Builder, advance func() (done bool, err error)) *Document {
	f := &frontier{d: b.doc, b: b, adv: advance}
	b.doc.feed.Store(f)
	return b.doc
}

// step parses one increment. Must hold f.mu. Returns the sticky error.
func (f *frontier) step() error {
	if f.err != nil {
		return f.err
	}
	if f.done {
		return nil
	}
	done, err := f.adv()
	if err != nil {
		f.err = err
		return err
	}
	if done {
		f.done = true
		// Publish completion: fast-path readers that load nil are ordered
		// after every array write above.
		f.d.feed.Store(nil)
	}
	return nil
}

// require advances until cond holds (cond is evaluated under f.mu).
func (f *frontier) require(cond func() bool) {
	for !cond() {
		if f.done {
			return // fully parsed; cond is as true as it will get
		}
		if err := f.step(); err != nil {
			panic(Abort{Err: err})
		}
	}
}

// closed reports whether node id's subtree is complete. Must hold f.mu.
func (f *frontier) closed(id int32) bool {
	if f.done {
		return true
	}
	if k := f.d.kind[id]; k != xdm.ElementNode && k != xdm.DocumentNode {
		return true // leaves are final at append
	}
	return !f.b.isOpen(id)
}

// ---- lock helpers used by the Document accessors ----

// rlock takes the frontier lock when the document is still under
// construction; returns nil (no unlock needed) once it is complete.
func (d *Document) rlock() *frontier {
	f := d.feed.Load()
	if f != nil {
		f.lock()
	}
	return f
}

// lock takes the frontier mutex. It stays out of line so that rlock
// inlines: a finished document's accessors then cost one atomic load, as a
// View's reads cost none.
//
//go:noinline
func (f *frontier) lock() { f.mu.Lock() }

func (d *Document) runlock(f *frontier) {
	if f != nil {
		f.mu.Unlock()
	}
}

// Complete drives the parse to the end of the input and returns the parse
// error, if any. Unlike the ensure* accessors it reports failure as an
// ordinary error instead of panicking (it is the eager-parse entry point).
func (d *Document) Complete() error {
	f := d.feed.Load()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.done {
		if err := f.step(); err != nil {
			return err
		}
	}
	return nil
}

// Advance parses one increment of an in-progress document, reporting
// whether the end of input was reached. Complete documents return (true,
// nil). Errors are returned (not panicked) and are sticky.
func (d *Document) Advance() (bool, error) {
	f := d.feed.Load()
	if f == nil {
		return true, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return false, err
	}
	return f.done, nil
}

// Lazy reports whether the document is still under construction.
func (d *Document) Lazy() bool { return d.feed.Load() != nil }
