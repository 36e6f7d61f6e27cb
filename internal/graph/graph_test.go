package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// buildReference is the map-based Build this package shipped before
// the counting-sort rewrite, kept verbatim as the oracle that Build
// must match byte for byte.
func buildReference(name string, n int, edges [][2]int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	type edge struct{ u, v int32 }
	set := make(map[edge]struct{}, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		set[edge{int32(u), int32(v)}] = struct{}{}
	}
	deg := make([]int32, n)
	for e := range set {
		deg[e.u]++
		deg[e.v]++
	}
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + deg[i]
	}
	adj := make([]int32, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for e := range set {
		adj[cursor[e.u]] = e.v
		cursor[e.u]++
		adj[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	// Sort each adjacency run so neighbour order is deterministic.
	g := &Graph{name: name, off: off, adj: adj}
	for v := 0; v < n; v++ {
		nb := g.adj[g.off[v]:g.off[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return g
}

// sameCSR reports how got differs from want, or nil if their name,
// size and CSR arrays are identical.
func sameCSR(got, want *Graph) error {
	switch {
	case got.Name() != want.Name():
		return fmt.Errorf("name %q, want %q", got.Name(), want.Name())
	case got.N() != want.N() || got.M() != want.M():
		return fmt.Errorf("%s: N=%d M=%d, want N=%d M=%d", want.Name(), got.N(), got.M(), want.N(), want.M())
	case !slices.Equal(got.off, want.off):
		return fmt.Errorf("%s: off %v, want %v", want.Name(), got.off, want.off)
	case !slices.Equal(got.adj, want.adj):
		return fmt.Errorf("%s: adj %v, want %v", want.Name(), got.adj, want.adj)
	}
	return nil
}

// connectedByBFS is the walk Connected made on every call before Build
// settled the answer.
func connectedByBFS(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// checkBuild builds edges with both builders and requires the same
// panic message or the same graph, whose Connected must match a BFS.
func checkBuild(t *testing.T, name string, n int, edges [][2]int) {
	t.Helper()
	got, gotPanic := tryBuild(Build, name, n, edges)
	want, wantPanic := tryBuild(buildReference, name, n, edges)
	if gotPanic != wantPanic {
		t.Fatalf("n=%d edges=%v: panic %q, reference panic %q", n, edges, gotPanic, wantPanic)
	}
	if want == nil {
		return
	}
	if err := sameCSR(got, want); err != nil {
		t.Fatalf("n=%d edges=%v: %v", n, edges, err)
	}
	if got.Connected() != connectedByBFS(got) {
		t.Fatalf("n=%d edges=%v: Connected()=%v, BFS says %v", n, edges, got.Connected(), !got.Connected())
	}
}

// tryBuild runs build, returning its panic message instead of the
// graph if it panics.
func tryBuild(build func(string, int, [][2]int) *Graph, name string, n int, edges [][2]int) (g *Graph, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			g, panicMsg = nil, fmt.Sprint(r)
		}
	}()
	return build(name, n, edges), ""
}

// TestBuildMatchesReference feeds both builders random edge lists full
// of repeats, reversed pairs, self-loops and isolated vertices, over
// n from 0 up, plus hand-picked edge cases.
func TestBuildMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges [][2]int
	}{
		{0, nil},
		{1, nil},
		{1, [][2]int{{0, 0}, {0, 0}}},
		{2, [][2]int{{1, 0}, {0, 1}, {1, 0}}},
		{5, [][2]int{{4, 4}, {3, 1}}},
		{3, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 2}}},
		{-1, nil},
		{0, [][2]int{{0, 0}}},
		{4, [][2]int{{0, 1}, {3, 4}}},
		{4, [][2]int{{0, 1}, {-1, 2}}},
		{4, [][2]int{{2, 2}, {1, -7}}},
	} {
		checkBuild(t, "case", tc.n, tc.edges)
	}
	r := rng.NewSeeded(0x5eed)
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(40)
		var edges [][2]int
		if n > 0 {
			// Endpoints come from a random subset of vertices, so some
			// stay isolated, and each edge may repeat, reverse or loop.
			span := 1 + r.Intn(n)
			for i := r.Intn(4 * n); i > 0; i-- {
				u, v := r.Intn(span), r.Intn(span)
				edges = append(edges, [2]int{u, v})
				if r.Bool(0.3) {
					edges = append(edges, [2]int{v, u})
				}
				if r.Bool(0.1) {
					edges = append(edges, [2]int{u, u})
				}
			}
		}
		checkBuild(t, fmt.Sprintf("random#%d", trial), n, edges)
	}
}

// TestConnectedSettledByBuild checks the stored answer against a fresh
// BFS on disconnected graphs, and that the zero value is connected.
func TestConnectedSettledByBuild(t *testing.T) {
	var zero Graph
	if !zero.Connected() {
		t.Fatal("zero-value Graph must be connected (N ≤ 1)")
	}
	for _, g := range []*Graph{
		Build("two-islands", 4, [][2]int{{0, 1}, {2, 3}}),
		Build("isolated", 3, [][2]int{{0, 1}}),
		Build("edgeless", 2, nil),
		Build("loop-only", 2, [][2]int{{1, 1}}),
		Build("single", 1, nil),
		Build("empty", 0, nil),
		Path(6),
	} {
		if g.Connected() != connectedByBFS(g) {
			t.Fatalf("%s: Connected()=%v, BFS says %v", g.Name(), g.Connected(), !g.Connected())
		}
	}
}

// decodeEdges reads a vertex count in [-1, 63] from the first byte and
// an edge from each following pair of bytes. Endpoints fall in
// [-1, n], so the out-of-range values either side turn up alongside
// repeats, reversed pairs and self-loops.
func decodeEdges(data []byte) (int, [][2]int) {
	if len(data) == 0 {
		return 0, nil
	}
	n := int(data[0])%65 - 1
	span := n + 2
	var edges [][2]int
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, [2]int{int(data[i])%span - 1, int(data[i+1])%span - 1})
	}
	return n, edges
}

// FuzzBuild requires Build ≡ buildReference on arbitrary edge lists,
// panic messages included. Its seeds live in testdata/fuzz/FuzzBuild.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data)
		checkBuild(t, "fuzz", n, edges)
	})
}

func TestBuildDedupAndLoops(t *testing.T) {
	g := Build("t", 4, [][2]int{{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}})
	if g.M() != 2 {
		t.Fatalf("M=%d want 2 (dedup + drop loop)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(2, 2) || g.HasEdge(0, 3) {
		t.Fatal("edge set wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestBuildPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build("t", 2, [][2]int{{0, 2}})
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	r := rng.NewSeeded(1)
	g := ErdosRenyi(40, 0.2, r)
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("neighbours of %d not strictly sorted: %v", v, nb)
			}
		}
		for _, w := range nb {
			if !g.HasEdge(int(w), v) {
				t.Fatalf("edge (%d,%d) not symmetric", v, w)
			}
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.N() != 6 || g.M() != 15 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 5 || g.MinDegree() != 5 {
		t.Fatal("K6 should be 5-regular")
	}
	if g.Diameter() != 1 {
		t.Fatalf("diameter=%d", g.Diameter())
	}
	if g.IsBipartite() {
		t.Fatal("K6 is not bipartite")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(8)
	if g.M() != 8 || g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Fatal("C8 structure wrong")
	}
	if g.Diameter() != 4 {
		t.Fatalf("C8 diameter=%d want 4", g.Diameter())
	}
	if !g.IsBipartite() {
		t.Fatal("even cycle is bipartite")
	}
	if Cycle(5).IsBipartite() {
		t.Fatal("odd cycle is not bipartite")
	}
}

func TestPathAndStar(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || p.Diameter() != 4 {
		t.Fatal("P5 wrong")
	}
	s := Star(10)
	if s.M() != 9 || s.Degree(0) != 9 || s.Degree(3) != 1 || s.Diameter() != 2 {
		t.Fatal("star wrong")
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4, false)
	if g.N() != 12 {
		t.Fatalf("N=%d", g.N())
	}
	// 3 rows × 3 horizontal edges + 2×4 vertical = 9+8 = 17.
	if g.M() != 17 {
		t.Fatalf("M=%d want 17", g.M())
	}
	if g.Degree(0) != 2 { // corner
		t.Fatalf("corner degree=%d", g.Degree(0))
	}
	if g.Degree(5) != 4 { // interior (1,1)
		t.Fatalf("interior degree=%d", g.Degree(5))
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
}

func TestTorus(t *testing.T) {
	g := Grid2D(4, 5, true)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree=%d want 4", v, g.Degree(v))
		}
	}
	if g.M() != 40 {
		t.Fatalf("M=%d want 40", g.M())
	}
}

func TestTorusSmallDimensionNoDoubleEdge(t *testing.T) {
	// With 2 columns wraparound would duplicate edges; generator must
	// skip the wrap instead of creating parallel edges.
	g := Grid2D(2, 2, true)
	if g.M() != 4 {
		t.Fatalf("2x2 torus M=%d want 4", g.M())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: N=%d M=%d", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatal("Q4 must be 4-regular")
		}
	}
	if g.Diameter() != 4 {
		t.Fatalf("Q4 diameter=%d", g.Diameter())
	}
	if !g.IsBipartite() {
		t.Fatal("hypercube is bipartite")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	r := rng.NewSeeded(7)
	const n, p = 200, 0.1
	g := ErdosRenyi(n, p, r)
	want := p * float64(n*(n-1)/2)
	got := float64(g.M())
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("G(n,p) edges=%v want ≈%v", got, want)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	r := rng.NewSeeded(8)
	if g := ErdosRenyi(10, 0, r); g.M() != 0 {
		t.Fatal("p=0 should give empty graph")
	}
	if g := ErdosRenyi(10, 1, r); g.M() != 45 {
		t.Fatal("p=1 should give complete graph")
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.NewSeeded(9)
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {64, 3}, {100, 6}} {
		g := RandomRegular(tc.n, tc.d, r)
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("regular(%d,%d): vertex %d has degree %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
		if !g.Connected() {
			// d>=3 random regular graphs are connected whp; a failure
			// here is overwhelmingly a generator bug.
			t.Fatalf("regular(%d,%d) disconnected", tc.n, tc.d)
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	r := rng.NewSeeded(10)
	defer func() {
		if recover() == nil {
			t.Fatal("odd n*d should panic")
		}
	}()
	RandomRegular(5, 3, r)
}

// completeReference is Complete as it was before it wrote CSR itself:
// every pair u < v through Build.
func completeReference(n int) *Graph {
	edges := make([][2]int, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return Build(fmt.Sprintf("complete(n=%d)", n), n, edges)
}

// randomRegularReference is RandomRegular as it was when a Go map held
// its edge set, kept verbatim (its fallback calls completeReference) as
// the oracle that RandomRegular must match byte for byte.
func randomRegularReference(n, d int, r *rng.Rand) *Graph {
	if d < 0 || d >= n || (n*d)%2 != 0 {
		panic("graph: RandomRegular requires 0 <= d < n and n*d even")
	}
	seen := make(map[[2]int]bool, n*d/2)
	edges := make([][2]int, 0, n*d/2)
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if u != v && !seen[key] {
			seen[key] = true
			edges = append(edges, key)
		}
	}
	for v := 0; v < n; v++ {
		for off := 1; off <= d/2; off++ {
			addEdge(v, (v+off)%n)
		}
		if d%2 == 1 {
			addEdge(v, (v+n/2)%n)
		}
	}
	if len(edges) != n*d/2 {
		if d == n-1 {
			return completeReference(n)
		}
		panic(fmt.Sprintf("graph: circulant seed produced %d edges, want %d", len(edges), n*d/2))
	}
	swaps := 20 * len(edges)
	for s := 0; s < swaps; s++ {
		i := r.Intn(len(edges))
		j := r.Intn(len(edges))
		if i == j {
			continue
		}
		a, b := edges[i][0], edges[i][1]
		c, e := edges[j][0], edges[j][1]
		if r.Bool(0.5) {
			b, a = a, b
		}
		if a == c || b == e {
			continue
		}
		n1 := [2]int{min(a, c), max(a, c)}
		n2 := [2]int{min(b, e), max(b, e)}
		if n1 == n2 || seen[n1] || seen[n2] {
			continue
		}
		delete(seen, edges[i])
		delete(seen, edges[j])
		seen[n1] = true
		seen[n2] = true
		edges[i] = n1
		edges[j] = n2
	}
	return Build(fmt.Sprintf("regular(n=%d,d=%d)", n, d), n, edges)
}

// sameGraph is sameCSR plus the settled connectivity.
func sameGraph(got, want *Graph) error {
	if err := sameCSR(got, want); err != nil {
		return err
	}
	if got.connected != want.connected {
		return fmt.Errorf("%s: connected=%v, want %v", want.Name(), got.connected, want.connected)
	}
	return nil
}

// TestCompleteMatchesReference holds Complete to the edge-list build.
func TestCompleteMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 17, 64, 1000} {
		if err := sameGraph(Complete(n), completeReference(n)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompletePanicsBeforeAllocating requires Complete to refuse the
// first n whose n·(n−1) adjacency entries overflow the int32 offsets,
// and to do so before it allocates the 8.6 GB its arrays would take.
func TestCompletePanicsBeforeAllocating(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		Complete(46342)
		return ""
	}()
	runtime.ReadMemStats(&after)
	if !strings.Contains(msg, "complete(n=46342)") || !strings.Contains(msg, "int32 offsets") {
		t.Fatalf("Complete(46342) panicked with %q, want the int32 offset limit", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("Complete(46342) allocated %d bytes before panicking", grew)
	}
}

// TestRandomRegularMatchesReference holds RandomRegular to the
// map-checked loop over empty, odd-degree, complete (d = n-1) and
// high-degree shapes, each from the same seed on both sides, and
// requires both to leave the generator in the same state.
func TestRandomRegularMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		seed uint64
	}{
		{1, 0, 1}, {2, 0, 2}, {5, 0, 3}, {2, 1, 4}, {4, 3, 5}, {6, 5, 6}, {7, 6, 7},
		{9, 8, 8}, {10, 3, 9}, {12, 5, 10}, {16, 4, 11}, {33, 2, 12}, {40, 39, 13},
		{64, 3, 14}, {100, 7, 15}, {100, 50, 16}, {128, 1, 17}, {250, 33, 18},
		{301, 100, 19}, {500, 16, 20},
	} {
		r, rr := rng.NewSeeded(tc.seed), rng.NewSeeded(tc.seed)
		if err := sameGraph(RandomRegular(tc.n, tc.d, r), randomRegularReference(tc.n, tc.d, rr)); err != nil {
			t.Fatalf("n=%d d=%d seed=%d: %v", tc.n, tc.d, tc.seed, err)
		}
		if r.Uint64() != rr.Uint64() {
			t.Fatalf("n=%d d=%d seed=%d: generator left in a different state", tc.n, tc.d, tc.seed)
		}
	}
}

func TestCliquePendant(t *testing.T) {
	g := CliquePendant(10, 3)
	if g.N() != 10 {
		t.Fatalf("N=%d", g.N())
	}
	// Clique on 9 vertices = 36 edges, plus 3 pendant links.
	if g.M() != 39 {
		t.Fatalf("M=%d want 39", g.M())
	}
	if g.Degree(9) != 3 {
		t.Fatalf("pendant degree=%d want 3", g.Degree(9))
	}
	if g.Degree(0) != 9 { // clique vertex 0 also touches the pendant
		t.Fatalf("degree(0)=%d want 9", g.Degree(0))
	}
	if g.Degree(5) != 8 {
		t.Fatalf("degree(5)=%d want 8", g.Degree(5))
	}
	if !g.Connected() {
		t.Fatal("disconnected")
	}
}

func TestGluedCliques(t *testing.T) {
	g := GluedCliques(12, 2)
	// Two K6 = 2·15 edges + 2 bridges.
	if g.M() != 32 {
		t.Fatalf("M=%d want 32", g.M())
	}
	if !g.Connected() {
		t.Fatal("disconnected")
	}
	if !g.HasEdge(0, 6) || !g.HasEdge(1, 7) || g.HasEdge(2, 8) {
		t.Fatal("bridge edges wrong")
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(5, 4)
	if g.N() != 9 {
		t.Fatalf("N=%d", g.N())
	}
	if g.M() != 10+4 {
		t.Fatalf("M=%d", g.M())
	}
	if g.Degree(8) != 1 {
		t.Fatal("path end should have degree 1")
	}
	if !g.Connected() {
		t.Fatal("disconnected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("BFS dist[%d]=%d want %d", i, d[i], want)
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := Build("two-islands", 4, [][2]int{{0, 1}, {2, 3}})
	if g.Connected() {
		t.Fatal("should be disconnected")
	}
	if g.Diameter() != -1 {
		t.Fatalf("diameter of disconnected graph = %d want -1", g.Diameter())
	}
	if d := g.BFS(0); d[2] != -1 {
		t.Fatal("unreachable vertex must have distance -1")
	}
}

func TestGenerateConnected(t *testing.T) {
	r := rng.NewSeeded(11)
	g := GenerateConnected(100, func() *Graph { return ErdosRenyi(50, 0.15, r) })
	if !g.Connected() {
		t.Fatal("GenerateConnected returned disconnected graph")
	}
}

func TestGenerateConnectedExhausts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateConnected(3, func() *Graph { return Build("x", 4, [][2]int{{0, 1}}) })
}

// Property: for arbitrary random graphs, handshake lemma and symmetry.
func TestPropertyHandshake(t *testing.T) {
	r := rng.NewSeeded(12)
	f := func(seed uint16) bool {
		n := 5 + int(seed%60)
		g := ErdosRenyi(n, 0.3, r)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: diameters of known families.
func TestKnownDiameters(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Complete(10), 1},
		{Star(10), 2},
		{Cycle(10), 5},
		{Hypercube(5), 5},
		{Grid2D(4, 4, false), 6},
	}
	for _, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Fatalf("%s diameter=%d want %d", c.g.Name(), got, c.want)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Build("empty", 0, nil)
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 || g.MinDegree() != 0 {
		t.Fatal("empty graph stats wrong")
	}
	if !g.Connected() {
		t.Fatal("empty graph is vacuously connected")
	}
}

func BenchmarkBuildComplete512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Complete(512)
	}
}

func BenchmarkBFSTorus(b *testing.B) {
	g := Grid2D(64, 64, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}
