package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := Path(3)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"path(n=3)\"", "0 -- 1;", "1 -- 2;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Each undirected edge appears once.
	if strings.Count(out, "--") != 2 {
		t.Fatalf("edge count wrong:\n%s", out)
	}
}

func TestWriteEdgeList(t *testing.T) {
	g := Build("square+diagonal", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 0}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	// Header, then each undirected edge once as "u v" with u < v, in
	// vertex order; vertex 4 is isolated and only counted in the header.
	const want = "n 5\n0 1\n0 2\n0 3\n1 2\n2 3\n"
	if got := buf.String(); got != want {
		t.Fatalf("edge list:\n%s\nwant:\n%s", got, want)
	}
}
