package main

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
)

// rnode is a node of the benchmark's own XML tree. Expected results are
// computed over this tree with plain Go, never with the engine under test.
type rnode struct {
	name  string // element name; empty for a text node and the document node
	text  string // text node content
	attrs []xml.Attr
	kids  []*rnode
}

// parseRef parses generated XML into a tree whose root is the document node.
func parseRef(src []byte) (*rnode, error) {
	dec := xml.NewDecoder(bytes.NewReader(src))
	doc := &rnode{}
	stack := []*rnode{doc}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			n := &rnode{name: t.Name.Local, attrs: t.Attr}
			top.kids = append(top.kids, n)
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if top != doc {
				top.kids = append(top.kids, &rnode{text: string(t)})
			}
		}
	}
}

func (n *rnode) isText() bool { return n.name == "" && n.kids == nil && n.attrs == nil }

// els returns the child elements with the given name ("*" for all).
func (n *rnode) els(name string) []*rnode {
	var out []*rnode
	for _, k := range n.kids {
		if k.name != "" && (name == "*" || k.name == name) {
			out = append(out, k)
		}
	}
	return out
}

// first returns the first child element with the given name, or an empty
// node so that lookups chain without nil checks.
func (n *rnode) first(name string) *rnode {
	for _, k := range n.kids {
		if k.name == name {
			return k
		}
	}
	return &rnode{}
}

func (n *rnode) has(name string) bool {
	for _, k := range n.kids {
		if k.name == name {
			return true
		}
	}
	return false
}

func (n *rnode) attr(name string) string {
	for _, a := range n.attrs {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}

// str is the XPath string value: the concatenated descendant text.
func (n *rnode) str() string {
	if n.isText() {
		return n.text
	}
	if len(n.kids) == 1 && n.kids[0].isText() {
		return n.kids[0].text
	}
	var sb strings.Builder
	n.walk(func(d *rnode) {
		if d.isText() {
			sb.WriteString(d.text)
		}
	})
	return sb.String()
}

// walk visits the descendants of n in document order.
func (n *rnode) walk(fn func(*rnode)) {
	for _, k := range n.kids {
		fn(k)
		k.walk(fn)
	}
}

var (
	refTextEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	refAttrEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\t", "&#9;")
)

// xml serializes the subtree the way the XML output method does.
func (n *rnode) xml() string {
	var sb strings.Builder
	n.write(&sb)
	return sb.String()
}

func (n *rnode) write(sb *strings.Builder) {
	if n.isText() {
		sb.WriteString(refTextEsc.Replace(n.text))
		return
	}
	sb.WriteString("<" + n.name)
	for _, a := range n.attrs {
		sb.WriteString(" " + a.Name.Local + `="` + refAttrEsc.Replace(a.Value) + `"`)
	}
	if len(n.kids) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteString(">")
	for _, k := range n.kids {
		k.write(sb)
	}
	sb.WriteString("</" + n.name + ">")
}

// elem builds the serialized form of a constructed element.
func elem(name, content string, attrs ...string) string {
	var sb strings.Builder
	sb.WriteString("<" + name)
	for i := 0; i+1 < len(attrs); i += 2 {
		sb.WriteString(" " + attrs[i] + `="` + refAttrEsc.Replace(attrs[i+1]) + `"`)
	}
	if content == "" {
		sb.WriteString("/>")
	} else {
		sb.WriteString(">" + content + "</" + name + ">")
	}
	return sb.String()
}
