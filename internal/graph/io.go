package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders the graph in Graphviz DOT format for visual
// inspection of small instances (lbgraph -dot).
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %q {\n", g.name)
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "  %d;\n", v)
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				fmt.Fprintf(bw, "  %d -- %d;\n", v, u)
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteEdgeList writes the graph as a plain text header line
// "n <vertices>" followed by one "u v" pair per undirected edge, for
// external tools (lbgraph -edgelist).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "n %d\n", g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}
