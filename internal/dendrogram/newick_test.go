package dendrogram

import (
	"strings"
	"testing"

	"parclust/internal/mst"
)

func TestWriteNewickSmall(t *testing.T) {
	// Path 0-1-2 with weights 1, 2: dendrogram is ((0,1),2).
	edges := []mst.Edge{mst.MakeEdge(0, 1, 1), mst.MakeEdge(1, 2, 2)}
	d := BuildSequential(3, edges, 0)
	var sb strings.Builder
	if err := d.WriteNewick(&sb, nil); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "((0:1,1:1):1,2:2):0;\n"
	if got != want {
		t.Fatalf("newick = %q, want %q", got, want)
	}
}

func TestWriteNewickNames(t *testing.T) {
	edges := []mst.Edge{mst.MakeEdge(0, 1, 1.5)}
	d := BuildSequential(2, edges, 0)
	var sb strings.Builder
	if err := d.WriteNewick(&sb, []string{"alpha", "beta"}); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "(alpha:1.5,beta:1.5):0;\n" {
		t.Fatalf("newick with names = %q", got)
	}
}

// TestWriteNewickShortNames checks that a names slice with fewer entries
// than leaves is an error, reported before anything is written.
func TestWriteNewickShortNames(t *testing.T) {
	n := 300
	d := BuildParallel(n, randTree(n, 5), 0)
	var sb strings.Builder
	err := d.WriteNewick(&sb, []string{"a"})
	if err == nil {
		t.Fatal("WriteNewick with 1 name for 300 leaves: no error")
	}
	if sb.Len() != 0 {
		t.Fatalf("WriteNewick wrote %q before failing", sb.String())
	}
}

// TestWriteNewickQuotedNames checks that a leaf name holding a Newick
// metacharacter or whitespace is single-quoted, with embedded quotes
// doubled, so it stays one leaf; a plain name is written as is.
func TestWriteNewickQuotedNames(t *testing.T) {
	edges := []mst.Edge{mst.MakeEdge(0, 1, 1), mst.MakeEdge(1, 2, 2), mst.MakeEdge(2, 3, 3)}
	d := BuildSequential(4, edges, 0)
	var sb strings.Builder
	if err := d.WriteNewick(&sb, []string{"a,b", "it's", "x y", "plain"}); err != nil {
		t.Fatal(err)
	}
	want := "((('a,b':1,'it''s':1):1,'x y':2):1,plain:3):0;\n"
	if got := sb.String(); got != want {
		t.Fatalf("newick with quoted names = %q, want %q", got, want)
	}
}

func TestWriteNewickBalanced(t *testing.T) {
	n := 200
	edges := randTree(n, 17)
	d := BuildParallel(n, edges, 0)
	var sb strings.Builder
	if err := d.WriteNewick(&sb, nil); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	if strings.Count(s, "(") != n-1 || strings.Count(s, ")") != n-1 {
		t.Fatalf("unbalanced parentheses: %d open, %d close",
			strings.Count(s, "("), strings.Count(s, ")"))
	}
	if strings.Count(s, ",") != n-1 {
		t.Fatalf("wrong comma count %d", strings.Count(s, ","))
	}
	if !strings.HasSuffix(s, ";\n") {
		t.Fatal("missing terminator")
	}
}

func TestWriteNewickDeepPath(t *testing.T) {
	// A path-shaped dendrogram must not blow the stack.
	n := 100000
	edges := make([]mst.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, mst.MakeEdge(int32(i-1), int32(i), float64(i)))
	}
	d := BuildParallel(n, edges, 0)
	var sb strings.Builder
	if err := d.WriteNewick(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "(") != n-1 {
		t.Fatal("wrong structure for deep path")
	}
}
