package structjoin

import (
	"fmt"
	"strings"

	"xqgo/internal/xdm"
)

// Twig patterns, the input of the holistic twig join (twigjoin.go). The
// holistic property: intermediate results are root-to-leaf path solutions
// that are guaranteed to extend to a full match for ancestor/descendant
// edges, instead of the possibly-huge pairwise outputs of a binary-join
// plan — exactly the effect experiment E6 measures.

// TwigNode is one node of a twig pattern.
type TwigNode struct {
	Name xdm.QName
	// ChildEdge: the edge to the parent is parent/child rather than
	// ancestor/descendant.
	ChildEdge bool
	Children  []*TwigNode
}

// ParseTwig parses a compact twig syntax: "a//b", "a/b" (child edge),
// branches in brackets: "a[b//c]//d".
func ParseTwig(s string) (*TwigNode, error) {
	p := &twigParser{src: s}
	n, err := p.node(false)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("twig: trailing input at %d in %q", p.pos, s)
	}
	return n, nil
}

type twigParser struct {
	src string
	pos int
}

func (p *twigParser) node(childEdge bool) (*TwigNode, error) {
	start := p.pos
	for p.pos < len(p.src) && (isTwigNameChar(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("twig: expected a name at %d in %q", p.pos, p.src)
	}
	n := &TwigNode{Name: xdm.LocalName(p.src[start:p.pos]), ChildEdge: childEdge}
	for p.pos < len(p.src) {
		switch {
		case p.src[p.pos] == '[':
			p.pos++
			if strings.HasPrefix(p.src[p.pos:], "//") {
				p.pos += 2
			}
			child, err := p.node(false)
			if err != nil {
				return nil, err
			}
			if p.pos >= len(p.src) || p.src[p.pos] != ']' {
				return nil, fmt.Errorf("twig: missing ] in %q", p.src)
			}
			p.pos++
			n.Children = append(n.Children, child)
		case p.src[p.pos] == '/':
			p.pos++
			desc := strings.HasPrefix(p.src[p.pos:], "/")
			if desc {
				p.pos++
			}
			child, err := p.node(!desc)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			return n, nil
		default:
			return n, nil
		}
	}
	return n, nil
}

func isTwigNameChar(c byte) bool {
	return c == '-' || c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// String renders the twig pattern.
func (n *TwigNode) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *TwigNode) render(b *strings.Builder) {
	b.WriteString(n.Name.Local)
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		if !last {
			b.WriteByte('[')
		} else if c.ChildEdge {
			b.WriteByte('/')
		} else {
			b.WriteString("//")
		}
		c.render(b)
		if !last {
			b.WriteByte(']')
		}
	}
}

// BinaryPlanStats decomposes the twig into binary structural joins (one per
// edge, evaluated independently on the name posting lists) and reports the
// total intermediate pairs a binary-join plan materializes — the comparator
// of E6.
func BinaryPlanStats(root *TwigNode, idx *Index) (totalPairs int64) {
	var walk func(t *TwigNode)
	walk = func(t *TwigNode) {
		for _, c := range t.Children {
			pairs := StackTreeDesc(idx.Elements(t.Name), idx.Elements(c.Name), c.ChildEdge)
			totalPairs += int64(len(pairs))
			walk(c)
		}
	}
	walk(root)
	return totalPairs
}
