package walk

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func kernelsFor(g *graph.Graph) []Kernel {
	return []Kernel{
		NewMaxDegree(g),
		NewLazy(NewMaxDegree(g)),
		NewMetropolis(g),
		NewLazy(NewMetropolis(g)),
	}
}

func TestDoublyStochasticAcrossKernelsAndGraphs(t *testing.T) {
	r := rng.NewSeeded(1)
	gs := []*graph.Graph{
		graph.Complete(12),
		graph.Cycle(9),
		graph.Path(7),
		graph.Star(8),
		graph.Grid2D(4, 5, false),
		graph.Grid2D(4, 4, true),
		graph.Hypercube(4),
		graph.CliquePendant(10, 2),
		graph.GenerateConnected(50, func() *graph.Graph { return graph.ErdosRenyi(30, 0.2, r) }),
	}
	for _, g := range gs {
		for _, k := range kernelsFor(g) {
			if err := CheckDoublyStochastic(k, 1e-9); err != nil {
				t.Fatalf("%s on %s: %v", k.Name(), g.Name(), err)
			}
		}
	}
}

func TestMaxDegreeKnownProbabilities(t *testing.T) {
	g := graph.Star(5) // centre degree 4, leaves degree 1, d = 4
	k := NewMaxDegree(g)
	if got := k.NeighborProb(0, 1); !almostEq(got, 0.25, 1e-15) {
		t.Fatalf("P(centre→leaf)=%v", got)
	}
	if got := k.SelfProb(0); !almostEq(got, 0, 1e-15) {
		t.Fatalf("P(centre stays)=%v", got)
	}
	if got := k.SelfProb(1); !almostEq(got, 0.75, 1e-15) {
		t.Fatalf("P(leaf stays)=%v", got)
	}
}

func TestMetropolisKnownProbabilities(t *testing.T) {
	g := graph.Star(5)
	k := NewMetropolis(g)
	// Edge {centre(deg 4), leaf(deg 1)}: P = 1/max(4,1) = 1/4 both ways.
	if got := k.NeighborProb(0, 1); !almostEq(got, 0.25, 1e-15) {
		t.Fatalf("metropolis centre→leaf = %v", got)
	}
	if got := k.NeighborProb(1, 0); !almostEq(got, 0.25, 1e-15) {
		t.Fatalf("metropolis leaf→centre = %v", got)
	}
	if got := k.SelfProb(1); !almostEq(got, 0.75, 1e-15) {
		t.Fatalf("metropolis leaf self = %v", got)
	}
}

func TestStepMatchesProbabilities(t *testing.T) {
	g := graph.CliquePendant(8, 2)
	r := rng.NewSeeded(3)
	const draws = 400000
	for _, k := range kernelsFor(g) {
		v := 7 // the pendant vertex, degree 2
		counts := map[int]int{}
		for i := 0; i < draws; i++ {
			counts[k.Step(v, r)]++
		}
		wantSelf := k.SelfProb(v)
		if got := float64(counts[v]) / draws; !almostEq(got, wantSelf, 0.005) {
			t.Fatalf("%s: empirical self prob %v want %v", k.Name(), got, wantSelf)
		}
		for _, w := range g.Neighbors(v) {
			want := k.NeighborProb(v, int(w))
			if got := float64(counts[int(w)]) / draws; !almostEq(got, want, 0.005) {
				t.Fatalf("%s: empirical P(%d→%d)=%v want %v", k.Name(), v, w, got, want)
			}
		}
	}
}

func TestEvolveDistMatchesMatrix(t *testing.T) {
	r := rng.NewSeeded(4)
	g := graph.GenerateConnected(50, func() *graph.Graph { return graph.ErdosRenyi(15, 0.3, r) })
	for _, k := range kernelsFor(g) {
		P := TransitionMatrix(k)
		n := g.N()
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = r.Float64()
		}
		// Normalise.
		s := 0.0
		for _, p := range dist {
			s += p
		}
		for i := range dist {
			dist[i] /= s
		}
		want := make([]float64, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want[j] += dist[i] * P[i][j]
			}
		}
		got := make([]float64, n)
		EvolveDist(k, dist, got)
		for i := range want {
			if !almostEq(got[i], want[i], 1e-12) {
				t.Fatalf("%s: EvolveDist[%d]=%v want %v", k.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestEvolveDistPreservesMass(t *testing.T) {
	g := graph.Grid2D(5, 5, false)
	k := NewMaxDegree(g)
	dist := make([]float64, g.N())
	dist[0] = 1
	next := make([]float64, g.N())
	for step := 0; step < 50; step++ {
		EvolveDist(k, dist, next)
		dist, next = next, dist
		s := 0.0
		for _, p := range dist {
			s += p
		}
		if !almostEq(s, 1, 1e-12) {
			t.Fatalf("mass %v after step %d", s, step)
		}
	}
}

func TestSpectralGapCompleteGraph(t *testing.T) {
	// K_n max-degree walk: eigenvalues 1 and −1/(n−1) ⇒ gap = 1 − 1/(n−1).
	r := rng.NewSeeded(5)
	for _, n := range []int{5, 10, 25} {
		k := NewMaxDegree(graph.Complete(n))
		got := SpectralGap(k, 3000, r)
		want := 1 - 1/float64(n-1)
		if !almostEq(got, want, 1e-6) {
			t.Fatalf("K%d gap=%v want %v", n, got, want)
		}
	}
}

func TestSpectralGapCycle(t *testing.T) {
	r := rng.NewSeeded(6)
	// Odd cycle, non-lazy: max|λ| = cos(π/n) ⇒ gap = 1 − cos(π/n).
	n := 9
	k := NewMaxDegree(graph.Cycle(n))
	got := SpectralGap(k, 20000, r)
	want := 1 - math.Cos(math.Pi/float64(n))
	if !almostEq(got, want, 1e-4) {
		t.Fatalf("C9 gap=%v want %v", got, want)
	}
	// Even cycle is periodic: λ = −1 present ⇒ gap ≈ 0.
	keven := NewMaxDegree(graph.Cycle(8))
	if g := SpectralGap(keven, 5000, r); g > 1e-3 {
		t.Fatalf("even cycle non-lazy gap=%v want ~0", g)
	}
	// Lazy even cycle: eigenvalues (1+cos(2πk/n))/2 ⇒ gap = (1−cos(2π/n))/2.
	klazy := NewLazy(NewMaxDegree(graph.Cycle(8)))
	wantLazy := (1 - math.Cos(2*math.Pi/8)) / 2
	if g := SpectralGap(klazy, 20000, r); !almostEq(g, wantLazy, 1e-4) {
		t.Fatalf("lazy C8 gap=%v want %v", g, wantLazy)
	}
}

func TestMixingBound(t *testing.T) {
	if got := MixingBound(100, 0.5); !almostEq(got, 8*math.Log(100), 1e-9) {
		t.Fatalf("MixingBound=%v", got)
	}
	if !math.IsInf(MixingBound(10, 0), 1) {
		t.Fatal("zero gap should give infinite bound")
	}
}

func TestTVFromUniform(t *testing.T) {
	if got := TVFromUniform([]float64{1, 0, 0, 0}); !almostEq(got, 0.75, 1e-12) {
		t.Fatalf("TV=%v want 0.75", got)
	}
	if got := TVFromUniform([]float64{0.25, 0.25, 0.25, 0.25}); got != 0 {
		t.Fatalf("TV=%v want 0", got)
	}
}

func TestMixingTimeTVCompleteGraph(t *testing.T) {
	// From any start on K_n, one step reaches TV = 1/n ≤ 0.25 for n ≥ 4.
	k := NewMaxDegree(graph.Complete(20))
	if got := MixingTimeTV(k, []int{0, 7}, DefaultMixingEps, 100); got != 1 {
		t.Fatalf("K20 TV mixing time = %d want 1", got)
	}
}

func TestMixingTimeTVGrowsWithCycle(t *testing.T) {
	small := MixingTimeTV(NewLazy(NewMaxDegree(graph.Cycle(8))), []int{0}, DefaultMixingEps, 100000)
	large := MixingTimeTV(NewLazy(NewMaxDegree(graph.Cycle(32))), []int{0}, DefaultMixingEps, 100000)
	if small <= 0 || large <= small {
		t.Fatalf("cycle mixing times: n=8→%d, n=32→%d (want increasing)", small, large)
	}
	// Θ(n²) diffusive scaling: ratio should be near 16, certainly > 8.
	if float64(large)/float64(small) < 8 {
		t.Fatalf("cycle mixing should scale ~quadratically: %d vs %d", small, large)
	}
}

func TestMixingTimeTVPeriodicCaps(t *testing.T) {
	// Non-lazy walk on an even cycle never mixes; must hit the cap.
	k := NewMaxDegree(graph.Cycle(8))
	if got := MixingTimeTV(k, []int{0}, DefaultMixingEps, 500); got != 500 {
		t.Fatalf("periodic chain mixing=%d want cap 500", got)
	}
}

func TestHittingTimePath3(t *testing.T) {
	// P3 with max-degree walk (d=2): h(1→2)=4, h(0→2)=6 (hand-solved).
	k := NewMaxDegree(graph.Path(3))
	h := HittingTimesTo(k, 2, 1e-12, 100000)
	if !almostEq(h[1], 4, 1e-6) || !almostEq(h[0], 6, 1e-6) || h[2] != 0 {
		t.Fatalf("P3 hitting = %v want [6 4 0]", h)
	}
}

func TestHittingTimeCompleteGraph(t *testing.T) {
	// K_n: from u≠v, success probability 1/(n−1) per step ⇒ H = n−1.
	for _, n := range []int{4, 9, 16} {
		k := NewMaxDegree(graph.Complete(n))
		h := HittingTimesTo(k, 0, 1e-12, 100000)
		for v := 1; v < n; v++ {
			if !almostEq(h[v], float64(n-1), 1e-6) {
				t.Fatalf("K%d: h[%d]=%v want %d", n, v, h[v], n-1)
			}
		}
	}
}

func TestHittingExactMatchesGaussSeidel(t *testing.T) {
	r := rng.NewSeeded(8)
	g := graph.GenerateConnected(50, func() *graph.Graph { return graph.ErdosRenyi(20, 0.25, r) })
	for _, k := range []Kernel{NewMaxDegree(g), NewMetropolis(g)} {
		for _, target := range []int{0, 5, 19} {
			hs := HittingTimesTo(k, target, 1e-11, 200000)
			ex := HittingTimesToExact(k, target)
			for v := range hs {
				if !almostEq(hs[v], ex[v], 1e-5*(1+ex[v])) {
					t.Fatalf("%s target %d: GS h[%d]=%v exact %v", k.Name(), target, v, hs[v], ex[v])
				}
			}
		}
	}
}

func TestMaxHittingTimeCompleteGraph(t *testing.T) {
	k := NewMaxDegree(graph.Complete(10))
	if got := MaxHittingTime(k, 1e-10, 100000); !almostEq(got, 9, 1e-4) {
		t.Fatalf("H(K10)=%v want 9", got)
	}
}

func TestMaxHittingTimeSampledLowerBound(t *testing.T) {
	r := rng.NewSeeded(10)
	k := NewMaxDegree(graph.Grid2D(5, 5, true))
	full := MaxHittingTime(k, 1e-9, 100000)
	sampled := MaxHittingTimeSampled(k, 5, 1e-9, 100000, r)
	if sampled > full+1e-6 {
		t.Fatalf("sampled H %v exceeds full %v", sampled, full)
	}
	// Torus is vertex-transitive: any target gives the same profile.
	if !almostEq(sampled, full, 1e-6) {
		t.Fatalf("vertex-transitive: sampled %v should equal full %v", sampled, full)
	}
}

func TestCliquePendantHittingScaling(t *testing.T) {
	// Observation 8: H(G) = Θ(n²/k) for the clique+pendant family.
	// Check that halving k roughly doubles H at fixed n.
	n := 40
	k1 := NewMaxDegree(graph.CliquePendant(n, 2))
	k2 := NewMaxDegree(graph.CliquePendant(n, 8))
	h1 := MaxHittingTime(k1, 1e-9, 200000)
	h2 := MaxHittingTime(k2, 1e-9, 200000)
	ratio := h1 / h2
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("H(k=2)/H(k=8) = %v want ≈4", ratio)
	}
}

func TestKernelPanicsOnEdgeless(t *testing.T) {
	g := graph.Build("edgeless", 3, nil)
	for name, f := range map[string]func(){
		"maxdeg":     func() { NewMaxDegree(g) },
		"metropolis": func() { NewMetropolis(g) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSpectralGapSingleVertex(t *testing.T) {
	// A single vertex with a self-loop-only chain mixes instantly.
	g := graph.Complete(2)
	k := NewLazy(NewMaxDegree(g))
	r := rng.NewSeeded(11)
	// Lazy K2: P = [[1/2,1/2],[1/2,1/2]], second eigenvalue 0 ⇒ gap 1.
	if got := SpectralGap(k, 2000, r); !almostEq(got, 1, 1e-6) {
		t.Fatalf("lazy K2 gap=%v want 1", got)
	}
}

func BenchmarkEvolveDistTorus32(b *testing.B) {
	g := graph.Grid2D(32, 32, true)
	k := NewMaxDegree(g)
	dist := make([]float64, g.N())
	dist[0] = 1
	next := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvolveDist(k, dist, next)
		dist, next = next, dist
	}
}

func BenchmarkHittingGaussSeidelGrid(b *testing.B) {
	k := NewMaxDegree(graph.Grid2D(16, 16, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HittingTimesTo(k, 0, 1e-8, 100000)
	}
}

func TestDefaultStarts(t *testing.T) {
	g := graph.CliquePendant(10, 2)
	k := NewLazy(NewMaxDegree(g))
	starts := DefaultStarts(k)
	if len(starts) == 0 {
		t.Fatal("no starts")
	}
	hasPendant := false
	seen := map[int]bool{}
	for _, s := range starts {
		if s < 0 || s >= g.N() || seen[s] {
			t.Fatalf("bad starts %v", starts)
		}
		seen[s] = true
		if s == 9 { // the pendant (minimum-degree) vertex
			hasPendant = true
		}
	}
	if !hasPendant {
		t.Fatalf("starts %v must include the min-degree pendant vertex", starts)
	}
	// Worst-of-starts mixing must dominate the clique-vertex-only one.
	only0 := MixingTimeTV(k, []int{0}, DefaultMixingEps, 1000000)
	worst := MixingTimeTV(k, starts, DefaultMixingEps, 1000000)
	if worst < only0 {
		t.Fatalf("worst-start mixing %d < single-start %d", worst, only0)
	}
}

func TestLongRunVisitFrequenciesUniform(t *testing.T) {
	// The paper requires walks whose stationary distribution is
	// uniform; verify empirically by ergodic averages on an irregular
	// graph where the simple walk would NOT be uniform.
	g := graph.CliquePendant(8, 2)
	r := rng.NewSeeded(21)
	for _, k := range []Kernel{NewMaxDegree(g), NewMetropolis(g), NewLazy(NewMaxDegree(g))} {
		visits := make([]int, g.N())
		pos := 0
		const steps = 400000
		for i := 0; i < steps; i++ {
			pos = k.Step(pos, r)
			visits[pos]++
		}
		want := float64(steps) / float64(g.N())
		for v, c := range visits {
			if math.Abs(float64(c)-want) > 0.05*want {
				t.Fatalf("%s: vertex %d visited %d times, want ≈%.0f (not uniform)",
					k.Name(), v, c, want)
			}
		}
	}
}

func TestSimpleWalkWouldNotBeUniform(t *testing.T) {
	// Sanity contrast for the test above: proportional-to-degree
	// visiting under a naive neighbour-uniform walk. This guards the
	// test's power — if the graph were regular the uniformity check
	// would be vacuous.
	g := graph.CliquePendant(8, 2)
	if g.MinDegree() == g.MaxDegree() {
		t.Fatal("test graph must be irregular")
	}
}

func TestEvolveDistRangeMatchesEvolveDist(t *testing.T) {
	g := graph.CliquePendant(8, 3)
	r := rng.NewSeeded(31)
	dist := make([]float64, g.N())
	total := 0.0
	for i := range dist {
		dist[i] = r.Float64()
		total += dist[i]
	}
	for i := range dist {
		dist[i] /= total
	}
	for _, k := range []Kernel{NewMaxDegree(g), NewLazy(NewMaxDegree(g)), NewMetropolis(g)} {
		scatter := make([]float64, g.N())
		EvolveDist(k, dist, scatter)
		gather := make([]float64, g.N())
		EvolveDistRange(k, dist, gather, 0, g.N())
		for v := range scatter {
			if math.Abs(scatter[v]-gather[v]) > 1e-12 {
				t.Fatalf("%s: vertex %d: scatter %v vs gather %v", k.Name(), v, scatter[v], gather[v])
			}
		}
	}
}

// evolveReference is EvolveDistRange's gather written plainly: one add
// per neighbour in CSR order, from a zero sum. It is the bit-for-bit
// oracle the range kernels are held to.
func evolveReference(k Kernel, dist, next []float64, lo, hi int) {
	g := k.Graph()
	n := g.N()
	if len(dist) != n || len(next) != n {
		panic("walk: EvolveDistRange dimension mismatch")
	}
	if p, ok := edgeProb(k); ok {
		// Uniform edge probability: row sums are 1, so
		// P(v,v) = 1 − p·deg(v) and the whole update collapses to one
		// constant-coefficient pass over the CSR row.
		for v := lo; v < hi; v++ {
			sum := 0.0
			nb := g.Neighbors(v)
			for _, w := range nb {
				sum += dist[w]
			}
			next[v] = dist[v] + p*(sum-float64(len(nb))*dist[v])
		}
		return
	}
	for v := lo; v < hi; v++ {
		acc := dist[v] * k.SelfProb(v)
		for _, w := range g.Neighbors(v) {
			acc += dist[w] * k.NeighborProb(v, int(w))
		}
		next[v] = acc
	}
}

// evolveGraphs covers every row shape the unrolled gather meets:
// degree 0 (an isolated vertex), 1–3 (no group of four), 4, 8 and 16
// (no tail) and 5–7 (a group and a tail), on regular and irregular
// graphs.
func evolveGraphs() []*graph.Graph {
	// Vertex 9 is isolated; vertex 1 is a star centre of degree 7.
	isolated := graph.Build("isolated", 10, [][2]int{
		{1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7}, {1, 8},
		{0, 2}, {2, 3}, {3, 4}, {4, 0},
	})
	return []*graph.Graph{
		graph.CliquePendant(9, 4),
		graph.Lollipop(6, 5),
		graph.Cycle(11),
		graph.Grid2D(32, 32, true),
		graph.Complete(17),
		graph.RandomRegular(1000, 16, rng.NewSeeded(34)),
		isolated,
	}
}

// evolveVector returns n finite values whose magnitudes span 2^±30 and
// whose signs vary, so a sum taken in any other order rounds
// differently somewhere.
func evolveVector(r *rng.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Ldexp(r.Float64(), r.Intn(61)-30)
		if r.Intn(4) == 0 {
			x[i] = -x[i]
		}
	}
	return x
}

// untouched marks output entries a range call must not write.
var untouched = math.Float64frombits(0x7ff8_0000_dead_beef)

func untouchedVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = untouched
	}
	return x
}

// sameBits fails unless got holds want's bits on [lo, hi) and the
// untouched mark everywhere else.
func sameBits(t *testing.T, what string, want, got []float64, lo, hi int) {
	t.Helper()
	for v := range got {
		w := untouched
		if v >= lo && v < hi {
			w = want[v]
		}
		if math.Float64bits(got[v]) != math.Float64bits(w) {
			t.Fatalf("%s [%d,%d): vertex %d is %v (%#x), want %v (%#x)",
				what, lo, hi, v, got[v], math.Float64bits(got[v]), w, math.Float64bits(w))
		}
	}
}

// TestEvolveDistRangePartitionInvariant pins the sharded-tuner
// determinism contract and the gather's arithmetic: on every graph of
// evolveGraphs and every kernel, a call on [lo, hi) writes exactly
// those entries, each equal to evolveReference's by Float64bits, so
// any partition of [0, n) into ranges gives the full-range output.
// EvolvePairRange is held to the same reference on each of its two
// vectors.
func TestEvolveDistRangePartitionInvariant(t *testing.T) {
	r := rng.NewSeeded(33)
	for _, g := range evolveGraphs() {
		n := g.N()
		x, y := evolveVector(r, n), evolveVector(r, n)
		for _, k := range []Kernel{NewMaxDegree(g), NewLazy(NewMaxDegree(g)), NewMetropolis(g)} {
			name := g.Name() + "/" + k.Name()
			wantX, wantY := make([]float64, n), make([]float64, n)
			evolveReference(k, x, wantX, 0, n)
			evolveReference(k, y, wantY, 0, n)
			for _, rg := range [][2]int{{0, n}, {0, 1}, {1, n - 1}, {n / 3, 2 * n / 3}, {n - 1, n}, {n / 2, n / 2}} {
				got := untouchedVector(n)
				EvolveDistRange(k, x, got, rg[0], rg[1])
				sameBits(t, name, wantX, got, rg[0], rg[1])
				gotX, gotY := untouchedVector(n), untouchedVector(n)
				EvolvePairRange(k, x, gotX, y, gotY, rg[0], rg[1])
				sameBits(t, name+" pair x", wantX, gotX, rg[0], rg[1])
				sameBits(t, name+" pair y", wantY, gotY, rg[0], rg[1])
			}
			for _, cuts := range [][]int{{1}, {n - 1}, {n / 3, 2 * n / 3}, {2, n / 2, n - 2}} {
				got := untouchedVector(n)
				gotX, gotY := untouchedVector(n), untouchedVector(n)
				prev := 0
				for _, c := range append(cuts, n) {
					EvolveDistRange(k, x, got, prev, c)
					EvolvePairRange(k, x, gotX, y, gotY, prev, c)
					prev = c
				}
				what := fmt.Sprintf("%s cuts %v", name, cuts)
				sameBits(t, what, wantX, got, 0, n)
				sameBits(t, what+" pair x", wantX, gotX, 0, n)
				sameBits(t, what+" pair y", wantY, gotY, 0, n)
			}
		}
	}
}

// decodeEvolve reads a FuzzEvolve input: byte 0 picks n in [1, 64],
// byte 1 the kernel, bytes 2–3 the range, byte 4 the edge count e, the
// next 2e bytes the edges (mod n; loops and repeats are Build's to
// drop), and the rest, four bytes a value, cycled when short and all
// zero below four bytes, the two vectors: a signed 24-bit mantissa
// scaled by 2^(b mod 128 − 64), so every value is finite and sums of
// them round. It returns a nil kernel when the graph has no edge.
func decodeEvolve(data []byte) (k Kernel, x, y []float64, lo, hi int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0)%64 + 1
	lo, hi = at(2)%(n+1), at(3)%(n+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	e := at(4)
	edges := make([][2]int, 0, e)
	for i := 0; i < e; i++ {
		edges = append(edges, [2]int{at(5+2*i) % n, at(6+2*i) % n})
	}
	g := graph.Build("fuzz", n, edges)
	if g.MaxDegree() == 0 {
		return nil, nil, nil, 0, 0
	}
	switch at(1) % 3 {
	case 0:
		k = NewMaxDegree(g)
	case 1:
		k = NewLazy(NewMaxDegree(g))
	default:
		k = NewMetropolis(g)
	}
	vals := data[min(5+2*e, len(data)):]
	value := func(i int) float64 {
		if len(vals) < 4 {
			return 0
		}
		b := vals[4*i%(len(vals)-len(vals)%4):]
		m := int32(uint32(b[1])<<24|uint32(b[2])<<16|uint32(b[3])<<8) >> 8
		return math.Ldexp(float64(m), int(b[0]%128)-64)
	}
	x, y = make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		x[v], y[v] = value(v), value(n+v)
	}
	return k, x, y, lo, hi
}

// fuzzEvolveSeed builds a FuzzEvolve input with random vectors over the
// given edges, so the seeds exercise rounding from the start.
func fuzzEvolveSeed(seed uint64, n, kernel, lo, hi int, edges [][2]int) []byte {
	data := []byte{byte(n - 1), byte(kernel), byte(lo), byte(hi), byte(len(edges))}
	for _, e := range edges {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	r := rng.NewSeeded(seed)
	for i := 0; i < 8*n; i++ {
		data = append(data, byte(r.Uint64()))
	}
	return data
}

// FuzzEvolve holds EvolveDistRange and both vectors of EvolvePairRange
// to evolveReference by Float64bits on graphs of up to 64 vertices,
// under every kernel and on any range, with every entry outside the
// range left untouched.
func FuzzEvolve(f *testing.F) {
	star := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {1, 2}, {2, 3}}
	var dense [][2]int
	for u := 0; u < 11; u++ {
		for v := u + 1; v < 11; v++ {
			dense = append(dense, [2]int{u, v})
		}
	}
	for kernel := 0; kernel < 3; kernel++ {
		f.Add(fuzzEvolveSeed(uint64(kernel+1), 9, kernel, 0, 9, star))
		f.Add(fuzzEvolveSeed(uint64(kernel+4), 12, kernel, 2, 11, dense))
	}
	f.Add([]byte{3, 0, 0, 4, 2, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, x, y, lo, hi := decodeEvolve(data)
		if k == nil {
			return
		}
		n := len(x)
		wantX, wantY := make([]float64, n), make([]float64, n)
		evolveReference(k, x, wantX, 0, n)
		evolveReference(k, y, wantY, 0, n)
		got := untouchedVector(n)
		EvolveDistRange(k, x, got, lo, hi)
		sameBits(t, k.Name(), wantX, got, lo, hi)
		gotX, gotY := untouchedVector(n), untouchedVector(n)
		EvolvePairRange(k, x, gotX, y, gotY, lo, hi)
		sameBits(t, k.Name()+" pair x", wantX, gotX, lo, hi)
		sameBits(t, k.Name()+" pair y", wantY, gotY, lo, hi)
	})
}

// TestEdgeProb pins the fast-path coefficients the sharded diffusion
// relies on.
func TestEdgeProb(t *testing.T) {
	g := graph.CliquePendant(8, 2)
	md := NewMaxDegree(g)
	if p, ok := md.EdgeProb(); !ok || p != 1/float64(g.MaxDegree()) {
		t.Fatalf("maxdeg EdgeProb = %v,%v", p, ok)
	}
	lz := NewLazy(md)
	if p, ok := lz.EdgeProb(); !ok || p != 1/(2*float64(g.MaxDegree())) {
		t.Fatalf("lazy EdgeProb = %v,%v", p, ok)
	}
	if p, ok := NewLazy(NewMetropolis(g)).EdgeProb(); ok {
		t.Fatalf("lazy(metropolis) claims uniform edges: %v", p)
	}
}
