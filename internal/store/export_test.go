package store

// ChunksBuilt reports how many of a document's handle chunks exist: 0 until
// it buys its slab, then those built on first touch.
func (d *Document) ChunksBuilt() int {
	s := d.slab.Load()
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.dir {
		if s.dir[i].Load() != nil {
			n++
		}
	}
	return n
}

// Bought reports whether the document has bought its slab.
func (d *Document) Bought() bool { return d.slab.Load() != nil }
