package tokens

import (
	"fmt"

	"xqgo/internal/store"
)

// BuildDocument drains an iterator into a new store document, assigning node
// identifiers — the materializing sink.
func BuildDocument(it Iterator, opts store.BuilderOptions) (*store.Document, error) {
	b := store.NewBuilder(opts)
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch t.Kind {
		case KindStartDocument:
			b.StartDocument()
		case KindEndDocument, KindEndElement:
			if t.Kind == KindEndElement {
				b.EndElement()
			}
		case KindStartElement:
			b.StartElement(t.Name)
		case KindAttribute:
			if err := b.Attr(t.Name, t.Value); err != nil {
				return nil, err
			}
		case KindNamespace:
			b.NSDecl(t.Name.Local, t.Value)
		case KindText:
			b.Text(t.Value)
		case KindComment:
			b.Comment(t.Value)
		case KindPI:
			b.PI(t.Name.Local, t.Value)
		case KindAtomic:
			b.Text(t.Atom.Lexical())
		default:
			return nil, fmt.Errorf("tokens: unexpected token %v in document build", t.Kind)
		}
	}
	return b.Done()
}
