// Package graph implements the immutable undirected graphs on which the
// load-balancing protocols run, in compressed sparse row (CSR) form.
//
// The paper's results are parameterised by an arbitrary undirected,
// connected graph G = (V, E): Theorem 3 by the mixing time τ(G),
// Theorem 7 by the maximum hitting time H(G). Table 1 compares five
// standard families (complete graph, regular expander, Erdős–Rényi,
// hypercube, grid), and Observation 8 uses a clique with a pendant node
// attached by k edges. This package provides generators for all of
// them plus structural queries (degrees, connectivity, diameter) used
// by the walk package and the experiment harness.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
)

// Graph is an immutable undirected graph over vertices 0..N-1 in CSR
// form. Parallel edges and self-loops are not represented; generators
// deduplicate. The zero value is an empty graph with no vertices.
type Graph struct {
	name      string
	off       []int32 // len N+1; neighbours of v are adj[off[v]:off[v+1]]
	adj       []int32
	connected bool // settled at construction: by Build's BFS, or true for K_n
}

// Build constructs a Graph from an edge list over n vertices. Edges are
// deduplicated, self-loops dropped, and endpoints validated.
//
// It counting-sorts both directions of every edge straight into CSR,
// sorts each adjacency run, and compacts away repeated edges; a final
// BFS settles Connected once for the graph's lifetime.
func Build(name string, n int, edges [][2]int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	off := make([]int32, n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u != v {
			off[u+1]++
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]int32, off[n])
	next := slices.Clone(off[:n])
	for _, e := range edges {
		if u, v := e[0], e[1]; u != v {
			adj[next[u]] = int32(v)
			next[u]++
			adj[next[v]] = int32(u)
			next[v]++
		}
	}
	// Sort each run so neighbour order is deterministic, drop repeated
	// neighbours, and move the run down over the space earlier runs'
	// repeats freed.
	kept := int32(0)
	for v := 0; v < n; v++ {
		run := adj[off[v]:off[v+1]]
		slices.Sort(run)
		off[v] = kept
		kept += int32(copy(adj[kept:], slices.Compact(run)))
	}
	off[n] = kept
	if int(kept) < len(adj) {
		adj = slices.Clone(adj[:kept]) // release the repeats' space
	}
	g := &Graph{name: name, off: off, adj: adj}
	g.connected = g.reachesAll()
	return g
}

// reachesAll reports whether a BFS from vertex 0 reaches every vertex
// (true for N ≤ 1). It stops once all are reached, so on a dense graph
// it reads little more than vertex 0's neighbours.
func (g *Graph) reachesAll() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := make([]int32, 1, n)
	for i := 0; i < len(queue) && len(queue) < n; i++ {
		for _, w := range g.Neighbors(int(queue[i])) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue) == n
}

// Name returns the generator-assigned human-readable name.
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// MinDegree returns the minimum vertex degree (0 for an empty graph).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if dv := g.Degree(v); dv < d {
			d = dv
		}
	}
	return d
}

// Neighbors returns the (sorted, read-only) neighbour slice of v.
// Callers must not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// Neighbor returns the i-th neighbour of v.
func (g *Graph) Neighbor(v, i int) int { return int(g.adj[int(g.off[v])+i]) }

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// BFS returns the vector of hop distances from src (-1 = unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (true for N ≤ 1,
// the zero value included). It is settled at construction, so this is
// O(1).
func (g *Graph) Connected() bool { return g.connected || g.N() <= 1 }

// Diameter returns the largest hop distance between any pair, or -1 if
// the graph is disconnected or empty. O(N·(N+M)): intended for the
// moderate sizes the experiments use.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFS(v) {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// IsBipartite reports whether the graph is 2-colourable. Bipartite
// graphs make the simple random walk periodic, which matters when
// choosing a walk kernel.
func (g *Graph) IsBipartite() bool {
	color := make([]int8, g.N())
	for start := 0; start < g.N(); start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue := []int32{int32(start)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(int(v)) {
				if color[w] == 0 {
					color[w] = -color[v]
					queue = append(queue, w)
				} else if color[w] == color[v] {
					return false
				}
			}
		}
	}
	return true
}

// Complete returns the complete graph K_n. It writes the CSR arrays
// directly: row v holds 0..n-1 without v, in ascending order, which is
// what Build makes of every pair, and K_n is connected. It panics if
// n·(n−1) overflows the int32 offsets, i.e. for n > 46341.
func Complete(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > 1 && n-1 > math.MaxInt32/n {
		panic(fmt.Sprintf("graph: complete(n=%d) has more than %d adjacency entries, the most int32 offsets hold", n, math.MaxInt32))
	}
	deg := max(n-1, 0)
	off := make([]int32, n+1)
	adj := make([]int32, n*deg)
	for v := 0; v < n; v++ {
		row := adj[v*deg : (v+1)*deg]
		for w := 0; w < v; w++ {
			row[w] = int32(w)
		}
		for w := v + 1; w < n; w++ {
			row[w-1] = int32(w)
		}
		off[v+1] = int32((v + 1) * deg)
	}
	return &Graph{name: fmt.Sprintf("complete(n=%d)", n), off: off, adj: adj, connected: true}
}

// Cycle returns the n-cycle C_n (n ≥ 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs n >= 3")
	}
	edges := make([][2]int, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	return Build(fmt.Sprintf("cycle(n=%d)", n), n, edges)
}

// Path returns the path P_n on n vertices.
func Path(n int) *Graph {
	edges := make([][2]int, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	return Build(fmt.Sprintf("path(n=%d)", n), n, edges)
}

// Star returns the star K_{1,n-1} with centre 0.
func Star(n int) *Graph {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return Build(fmt.Sprintf("star(n=%d)", n), n, edges)
}

// Grid2D returns the rows×cols grid; if torus is true, rows and columns
// wrap around (each vertex has degree 4 when rows,cols ≥ 3). Vertex
// (r,c) has index r*cols+c. This is the "Grid" family of Table 1.
func Grid2D(rows, cols int, torus bool) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: grid needs positive dimensions")
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			} else if torus && cols > 2 {
				edges = append(edges, [2]int{id(r, c), id(r, 0)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			} else if torus && rows > 2 {
				edges = append(edges, [2]int{id(r, c), id(0, c)})
			}
		}
	}
	kind := "grid"
	if torus {
		kind = "torus"
	}
	return Build(fmt.Sprintf("%s(%dx%d)", kind, rows, cols), rows*cols, edges)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 30 {
		panic("graph: hypercube dimension out of range")
	}
	n := 1 << uint(dim)
	var edges [][2]int
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			w := v ^ (1 << uint(b))
			if v < w {
				edges = append(edges, [2]int{v, w})
			}
		}
	}
	return Build(fmt.Sprintf("hypercube(dim=%d)", dim), n, edges)
}

// ErdosRenyi returns a G(n,p) sample. Table 1 assumes
// p > (1+ε)·ln n / n, well above the connectivity threshold; callers
// should verify Connected() and resample if needed (see Connected
// helper GenerateConnected).
func ErdosRenyi(n int, p float64, r *rng.Rand) *Graph {
	if p < 0 || p > 1 {
		panic("graph: ErdosRenyi needs p in [0,1]")
	}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return Build(fmt.Sprintf("gnp(n=%d,p=%.3g)", n, p), n, edges)
}

// RandomRegular returns a random d-regular graph on n vertices.
// It starts from a deterministic circulant d-regular graph and applies
// Θ(n·d) random double-edge swaps, each preserving all degrees and
// simplicity. This always terminates (unlike configuration-model
// restarts, whose success probability decays like e^{-d²/4}) and mixes
// to a near-uniform random regular graph. Requires n·d even and
// d < n; for d ≥ 3 the result is an expander with high probability —
// the "Reg. Expander" family of Table 1.
func RandomRegular(n, d int, r *rng.Rand) *Graph {
	if d < 0 || d >= n || (n*d)%2 != 0 {
		panic("graph: RandomRegular requires 0 <= d < n and n*d even")
	}
	// Circulant seed: connect v to v+1, …, v+d/2 (mod n); if d is odd,
	// n is even (n·d even), so also connect each v < n/2 to its antipode
	// v+n/2. These n·d/2 edges are distinct: two offsets up to
	// d/2 < n/2 never add up to n, and neither equals n/2.
	m := n * d / 2
	edges := make([][2]int, 0, m)
	seen := newEdgeSet(m)
	for v := 0; v < n; v++ {
		for off := 1; off <= d/2; off++ {
			w := (v + off) % n
			edges = append(edges, [2]int{min(v, w), max(v, w)})
		}
		if d%2 == 1 && v < n/2 {
			edges = append(edges, [2]int{v, v + n/2})
		}
	}
	for _, e := range edges {
		seen.add(edgeKey(e[0], e[1]))
	}
	// Double-edge swaps: pick edges (a,b),(c,d'), rewire to (a,c),(b,d')
	// or (a,d'),(b,c) when the result stays simple.
	swaps := 20 * m
	for s := 0; s < swaps; s++ {
		i := r.Intn(m)
		j := r.Intn(m)
		if i == j {
			continue
		}
		a, b := edges[i][0], edges[i][1]
		c, e := edges[j][0], edges[j][1]
		if r.Bool(0.5) {
			b, a = a, b
		}
		// Proposed new edges: (a,c) and (b,e).
		if a == c || b == e {
			continue
		}
		n1 := [2]int{min(a, c), max(a, c)}
		n2 := [2]int{min(b, e), max(b, e)}
		k1, k2 := edgeKey(n1[0], n1[1]), edgeKey(n2[0], n2[1])
		if k1 == k2 || seen.has(k1) || seen.has(k2) {
			continue
		}
		seen.remove(edgeKey(edges[i][0], edges[i][1]))
		seen.remove(edgeKey(edges[j][0], edges[j][1]))
		seen.add(k1)
		seen.add(k2)
		edges[i] = n1
		edges[j] = n2
	}
	return Build(fmt.Sprintf("regular(n=%d,d=%d)", n, d), n, edges)
}

// CliquePendant returns the Observation 8 lower-bound family: a clique
// on n-1 vertices {0..n-2} plus a single pendant vertex n-1 connected
// to exactly k clique vertices (0..k-1). Its maximum hitting time is
// Θ(n²/k).
func CliquePendant(n, k int) *Graph {
	if n < 3 || k < 1 || k > n-1 {
		panic("graph: CliquePendant requires n >= 3, 1 <= k <= n-1")
	}
	var edges [][2]int
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n-1; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	for i := 0; i < k; i++ {
		edges = append(edges, [2]int{i, n - 1})
	}
	return Build(fmt.Sprintf("cliquePendant(n=%d,k=%d)", n, k), n, edges)
}

// GluedCliques returns two cliques of size n/2 joined by k parallel
// "bridge" pairs (vertex i of clique A to vertex i of clique B for
// i < k) — the family used in Hoefer–Sauerwald's lower bound that
// Observation 8 adapts. Requires even n ≥ 4 and 1 ≤ k ≤ n/2.
func GluedCliques(n, k int) *Graph {
	if n < 4 || n%2 != 0 || k < 1 || k > n/2 {
		panic("graph: GluedCliques requires even n >= 4 and 1 <= k <= n/2")
	}
	half := n / 2
	var edges [][2]int
	for base := 0; base < n; base += half {
		for u := 0; u < half; u++ {
			for v := u + 1; v < half; v++ {
				edges = append(edges, [2]int{base + u, base + v})
			}
		}
	}
	for i := 0; i < k; i++ {
		edges = append(edges, [2]int{i, half + i})
	}
	return Build(fmt.Sprintf("gluedCliques(n=%d,k=%d)", n, k), n, edges)
}

// Lollipop returns the lollipop graph: a clique on cliqueN vertices
// with a path of pathN additional vertices hanging off vertex 0. A
// classical worst case for hitting times (Θ(n³) on the simple walk).
func Lollipop(cliqueN, pathN int) *Graph {
	if cliqueN < 2 || pathN < 0 {
		panic("graph: Lollipop requires cliqueN >= 2, pathN >= 0")
	}
	n := cliqueN + pathN
	var edges [][2]int
	for u := 0; u < cliqueN; u++ {
		for v := u + 1; v < cliqueN; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	prev := 0
	for i := 0; i < pathN; i++ {
		edges = append(edges, [2]int{prev, cliqueN + i})
		prev = cliqueN + i
	}
	return Build(fmt.Sprintf("lollipop(clique=%d,path=%d)", cliqueN, pathN), n, edges)
}

// GenerateConnected resamples gen until it produces a connected graph,
// up to maxTries attempts. Useful for G(n,p) near the threshold.
func GenerateConnected(maxTries int, gen func() *Graph) *Graph {
	for i := 0; i < maxTries; i++ {
		if g := gen(); g.Connected() {
			return g
		}
	}
	panic("graph: GenerateConnected exhausted attempts")
}
