package walk

import (
	"math"

	"repro/internal/rng"
)

// HittingTimesTo returns the vector h where h[v] = E[time for the walk
// started at v to first reach target]. It solves the linear system
//
//	h[target] = 0,   h[v] = 1 + Σ_w P(v,w)·h(w)   (v ≠ target)
//
// by Gauss–Seidel iteration, which converges for any connected graph
// because the restricted matrix is substochastic and irreducible.
// tol is the maximum absolute update at convergence; maxIters caps the
// sweeps (returns the current iterate if exceeded).
func HittingTimesTo(k Kernel, target int, tol float64, maxIters int) []float64 {
	g := k.Graph()
	n := g.N()
	h := make([]float64, n)
	for it := 0; it < maxIters; it++ {
		delta := 0.0
		for v := 0; v < n; v++ {
			if v == target {
				continue
			}
			sum := 1.0 + k.SelfProb(v)*h[v]
			for _, w := range g.Neighbors(v) {
				if int(w) == target {
					continue
				}
				sum += k.NeighborProb(v, int(w)) * h[w]
			}
			// Solve the diagonal term implicitly:
			// h[v] = 1 + p_vv·h[v] + Σ… ⇒ h[v]·(1−p_vv) = 1 + Σ…
			pvv := k.SelfProb(v)
			var nv float64
			if pvv < 1 {
				nv = (sum - pvv*h[v]) / (1 - pvv)
			} else {
				nv = math.Inf(1) // absorbing non-target state: disconnected
			}
			if d := math.Abs(nv - h[v]); d > delta {
				delta = d
			}
			h[v] = nv
		}
		if delta < tol {
			break
		}
	}
	return h
}

// HittingTimesToExact solves the same system by dense Gaussian
// elimination with partial pivoting — O(n³), for cross-validation at
// small n.
func HittingTimesToExact(k Kernel, target int) []float64 {
	g := k.Graph()
	n := g.N()
	// Build (I − Q) x = 1 over the n−1 non-target states.
	idx := make([]int, 0, n-1) // state index -> vertex
	pos := make([]int, n)      // vertex -> state index (or -1)
	for v := range pos {
		pos[v] = -1
	}
	for v := 0; v < n; v++ {
		if v != target {
			pos[v] = len(idx)
			idx = append(idx, v)
		}
	}
	m := len(idx)
	a := make([][]float64, m) // augmented [A | b]
	for i, v := range idx {
		row := make([]float64, m+1)
		row[i] = 1 - k.SelfProb(v)
		for _, w := range g.Neighbors(v) {
			if int(w) == target {
				continue
			}
			row[pos[w]] -= k.NeighborProb(v, int(w))
		}
		row[m] = 1
		a[i] = row
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		p := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		piv := a[col][col]
		if piv == 0 {
			// Disconnected from target: hitting time infinite.
			continue
		}
		for r := 0; r < m; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / piv
			for c := col; c <= m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	h := make([]float64, n)
	for i, v := range idx {
		if a[i][i] != 0 {
			h[v] = a[i][m] / a[i][i]
		} else {
			h[v] = math.Inf(1)
		}
	}
	return h
}

// MaxHittingTime returns H(G) = max_{u,v} H_{u,v} computed by solving
// the hitting system for every target. O(n · cost(solve)); fine for the
// experiment sizes (n ≤ ~2000 with Gauss–Seidel).
func MaxHittingTime(k Kernel, tol float64, maxIters int) float64 {
	n := k.Graph().N()
	best := 0.0
	for target := 0; target < n; target++ {
		for _, h := range HittingTimesTo(k, target, tol, maxIters) {
			if h > best {
				best = h
			}
		}
	}
	return best
}

// MaxHittingTimeSampled estimates H(G) from a subset of targets chosen
// uniformly at random — used for large n where all-targets is too slow.
// It is a lower bound on H(G) that concentrates quickly on the vertex-
// transitive graphs in Table 1.
func MaxHittingTimeSampled(k Kernel, targets int, tol float64, maxIters int, r *rng.Rand) float64 {
	n := k.Graph().N()
	if targets >= n {
		return MaxHittingTime(k, tol, maxIters)
	}
	best := 0.0
	for i := 0; i < targets; i++ {
		t := r.Intn(n)
		for _, h := range HittingTimesTo(k, t, tol, maxIters) {
			if h > best {
				best = h
			}
		}
	}
	return best
}
