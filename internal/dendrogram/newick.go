package dendrogram

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// WriteNewick serializes the dendrogram in Newick format for use with
// standard dendrogram/phylogeny viewers. Leaves are named by their point
// index (or by names[i] when names is non-nil, which then needs a name per
// leaf); a name holding whitespace or one of ()[]':;, is written in single
// quotes with any embedded quote doubled. Branch lengths are the height
// differences between a node and its parent, so root-to-leaf path lengths
// equal merge heights. The dendrogram of zero points is the empty tree ";".
func (d *Dendrogram) WriteNewick(w io.Writer, names []string) error {
	if names != nil && len(names) < d.N {
		return fmt.Errorf("dendrogram: %d names for %d leaves", len(names), d.N)
	}
	bw := bufio.NewWriter(w)
	if d.N > 0 {
		if err := d.writeNewickNode(bw, d.Root, d.rootHeight(), names); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(";\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func (d *Dendrogram) rootHeight() float64 {
	if d.IsLeaf(d.Root) {
		return 0
	}
	return d.HeightOf(d.Root)
}

// writeNewickNode emits node id whose parent merges at parentH. The
// dendrogram can be path-shaped, so recursion is replaced by an explicit
// stack of emit actions.
func (d *Dendrogram) writeNewickNode(bw *bufio.Writer, root int32, rootH float64, names []string) error {
	type action struct {
		id      int32
		parentH float64
		text    string // when non-empty, literal output instead of a node
	}
	stack := []action{{id: root, parentH: rootH}}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.text != "" {
			if _, err := bw.WriteString(a.text); err != nil {
				return err
			}
			continue
		}
		if d.IsLeaf(a.id) {
			name := strconv.Itoa(int(a.id))
			if names != nil {
				name = newickLabel(names[a.id])
			}
			if _, err := fmt.Fprintf(bw, "%s:%g", name, a.parentH); err != nil {
				return err
			}
			continue
		}
		h := d.HeightOf(a.id)
		l, r := d.Children(a.id)
		// Emit "(", left, ",", right, "):len" — pushed in reverse.
		stack = append(stack,
			action{text: fmt.Sprintf("):%g", a.parentH-h)},
			action{id: r, parentH: h},
			action{text: ","},
			action{id: l, parentH: h},
			action{text: "("},
		)
	}
	return nil
}

// newickLabel returns name as a Newick leaf label: unchanged unless it
// holds whitespace or a character Newick reserves, in which case it is
// quoted in single quotes with any embedded quote doubled.
func newickLabel(name string) string {
	reserved := func(r rune) bool { return unicode.IsSpace(r) || strings.ContainsRune("()[]':;,", r) }
	if !strings.ContainsFunc(name, reserved) {
		return name
	}
	return "'" + strings.ReplaceAll(name, "'", "''") + "'"
}
