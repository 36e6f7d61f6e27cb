package graph_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/recovery"
	"repro/internal/rng"
)

// referenceDigests holds csrDigest of every generatorCases graph as the
// map-based builder (buildReference in graph_test.go) produced it, so
// each generator's output, repeated input edges included, stays byte
// for byte what it was. The three high-degree RandomRegular shapes
// were recorded later, from the map-checked swap loop that
// randomRegularReference keeps.
var referenceDigests = map[string]uint64{
	"complete(n=0)":                          0x5948278c5546e924,
	"complete(n=1)":                          0x64ce18c1222ce6e0,
	"complete(n=2)":                          0x1f871c372850c640,
	"complete(n=7)":                          0x3219cb9f4e4312af,
	"complete(n=1000)":                       0x4f4702473db71572,
	"cycle(n=3)":                             0xa1e59e8056cccd80,
	"cycle(n=10)":                            0xc35701cdebd12242,
	"path(n=1)":                              0xf38a27af93aa46fc,
	"star(n=1)":                              0x81ebef025d1cf3d5,
	"path(n=2)":                              0x61647c41eb2286cc,
	"star(n=2)":                              0xddf07441b48b879d,
	"path(n=9)":                              0xe88408d8a28816ee,
	"star(n=9)":                              0xc965440ca15c466d,
	"grid(1x1)":                              0x50e8357cfcb3b381,
	"torus(1x1)":                             0xb27ed6b6dd5801a8,
	"grid(1x6)":                              0xa7fa95feeb9d1fb9,
	"torus(1x6)":                             0xe97c2724bbf309a6,
	"grid(6x1)":                              0xfa9af3afa7498c51,
	"torus(6x1)":                             0x9a0e7116c000421e,
	"grid(2x2)":                              0xacd8da6b4bfbccb8,
	"torus(2x2)":                             0xfee182cf1f84a4f1,
	"grid(2x7)":                              0xc57cede75e90e699,
	"torus(2x7)":                             0x5be40ee9be2ab32a,
	"grid(7x2)":                              0x5d29b81e1c714b6d,
	"torus(7x2)":                             0xfcbb2e13002c7342,
	"grid(3x4)":                              0x376469de64198701,
	"torus(3x4)":                             0xfb7ecbdb8dab2902,
	"grid(32x32)":                            0x39198553ef1ac8f3,
	"torus(32x32)":                           0x9befddb9b9cd0e8f,
	"hypercube(dim=0)":                       0x93ee6536fc42433b,
	"hypercube(dim=1)":                       0x0970d14ec3264ea5,
	"hypercube(dim=5)":                       0xd83f3145117ad363,
	"gnp(n=30,p=0.2)":                        0x3929dcaa2b7335e5,
	"gnp(n=60,p=0.05)":                       0x8aa275d1c88dd14f,
	"gnp(n=200,p=0.1)":                       0xc2ece01e8b1ce4ec,
	"regular(n=2,d=1)":                       0x6985b62bd710f915,
	"regular(n=5,d=0)":                       0x21687739d70f3d30,
	"regular(n=6,d=5)":                       0x73d969f4c01f87c7,
	"regular(n=7,d=6)":                       0xf033246ea3bb8251,
	"regular(n=10,d=3)":                      0x70bfc88348066094,
	"regular(n=64,d=3)":                      0x0c4dcf9d3ac6d12d,
	"regular(n=1000,d=16)":                   0x952dce6a5ee9f23e,
	"regular(n=200,d=50)":                    0x2d4bc438a161971e,
	"regular(n=300,d=99)":                    0x3026197e90e36bd2,
	"regular(n=1000,d=64)":                   0x6846e1189a41d69f,
	"cliquePendant(n=3,k=1)":                 0x63df9d3d5fab7cb8,
	"cliquePendant(n=10,k=3)":                0xc7e0a98f03438d41,
	"cliquePendant(n=10,k=9)":                0x4996431d27d6d254,
	"gluedCliques(n=4,k=1)":                  0x33a032ad79d535c2,
	"gluedCliques(n=12,k=2)":                 0x0f9922386360fa47,
	"gluedCliques(n=12,k=6)":                 0x70baba9af2671a17,
	"lollipop(clique=2,path=0)":              0x7d00609203af47e9,
	"lollipop(clique=5,path=4)":              0xf44240255ce47907,
	"lollipop(clique=3,path=10)":             0xa1867604fa064fa1,
	"cluster(n=120,racks=6,intra=4,inter=2)": 0xeb783a8533d78ade,
	"cluster(n=12,racks=1,intra=8,inter=0)":  0x22e4fbe62a165f10,
	"cluster(n=50,racks=5,intra=3,inter=1)":  0x9e705338f392ce9a,
	"cluster(n=1000,racks=40,intra=6,inter=2)": 0x3d4f61185294fa39,
}

// TestGeneratorsMatchReference checks every generator against the
// reference builder's output and its Connected against a fresh BFS.
func TestGeneratorsMatchReference(t *testing.T) {
	seen := map[string]bool{}
	for _, build := range generatorCases() {
		g := build()
		name := g.Name()
		seen[name] = true
		want, ok := referenceDigests[name]
		if !ok {
			t.Fatalf("%s: no reference digest", name)
		}
		if got := csrDigest(g); got != want {
			t.Errorf("%s: CSR digest %#016x, reference builder gave %#016x", name, got, want)
		}
		connected := true
		if g.N() > 1 {
			for _, d := range g.BFS(0) {
				connected = connected && d >= 0
			}
		}
		if g.Connected() != connected {
			t.Errorf("%s: Connected()=%v, BFS says %v", name, g.Connected(), connected)
		}
	}
	if len(seen) != len(referenceDigests) {
		t.Fatalf("ran %d generator cases, have %d reference digests", len(seen), len(referenceDigests))
	}
}

// generatorCases runs every generator at several sizes and seeds,
// including the degenerate shapes: RandomRegular with d = n-1 and at
// high and odd degree, grids
// one or two wide, and cluster graphs whose random rack mates repeat
// edges.
func generatorCases() []func() *graph.Graph {
	seeded := rng.NewSeeded
	var cs []func() *graph.Graph
	for _, n := range []int{0, 1, 2, 7, 1000} {
		cs = append(cs, func() *graph.Graph { return graph.Complete(n) })
	}
	for _, n := range []int{3, 10} {
		cs = append(cs, func() *graph.Graph { return graph.Cycle(n) })
	}
	for _, n := range []int{1, 2, 9} {
		cs = append(cs,
			func() *graph.Graph { return graph.Path(n) },
			func() *graph.Graph { return graph.Star(n) })
	}
	for _, rc := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {2, 2}, {2, 7}, {7, 2}, {3, 4}, {32, 32}} {
		for _, torus := range []bool{false, true} {
			cs = append(cs, func() *graph.Graph { return graph.Grid2D(rc[0], rc[1], torus) })
		}
	}
	for _, dim := range []int{0, 1, 5} {
		cs = append(cs, func() *graph.Graph { return graph.Hypercube(dim) })
	}
	cs = append(cs,
		func() *graph.Graph { return graph.ErdosRenyi(30, 0.2, seeded(1)) },
		func() *graph.Graph { return graph.ErdosRenyi(60, 0.05, seeded(2)) },
		func() *graph.Graph { return graph.ErdosRenyi(200, 0.1, seeded(3)) })
	for _, nds := range [][3]int{{2, 1, 4}, {5, 0, 5}, {6, 5, 6}, {7, 6, 7}, {10, 3, 8}, {64, 3, 9}, {1000, 16, 10},
		{200, 50, 11}, {300, 99, 12}, {1000, 64, 13}} {
		cs = append(cs, func() *graph.Graph { return graph.RandomRegular(nds[0], nds[1], seeded(uint64(nds[2]))) })
	}
	for _, nk := range [][2]int{{3, 1}, {10, 3}, {10, 9}} {
		cs = append(cs, func() *graph.Graph { return graph.CliquePendant(nk[0], nk[1]) })
	}
	for _, nk := range [][2]int{{4, 1}, {12, 2}, {12, 6}} {
		cs = append(cs, func() *graph.Graph { return graph.GluedCliques(nk[0], nk[1]) })
	}
	for _, cp := range [][2]int{{2, 0}, {5, 4}, {3, 10}} {
		cs = append(cs, func() *graph.Graph { return graph.Lollipop(cp[0], cp[1]) })
	}
	for _, c := range []struct {
		n, racks, zones, intra, inter int
		seed                          uint64
	}{{120, 6, 2, 4, 2, 7}, {12, 1, 1, 8, 0, 3}, {50, 5, 1, 3, 1, 9}, {1000, 40, 4, 6, 2, 1234}} {
		cs = append(cs, func() *graph.Graph {
			topo, err := recovery.Synth(c.n, c.racks, c.zones)
			if err != nil {
				panic(err)
			}
			return topo.ClusterGraph(c.intra, c.inter, c.seed)
		})
	}
	return cs
}

// csrDigest hashes a graph's name, vertex and edge counts, and every
// adjacency run in vertex order, which together fix off and adj.
func csrDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	h.Write([]byte(g.Name()))
	var buf [4]byte
	put := func(x int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	put(g.N())
	put(g.M())
	for v := 0; v < g.N(); v++ {
		put(g.Degree(v))
		for _, w := range g.Neighbors(v) {
			put(int(w))
		}
	}
	return h.Sum64()
}
