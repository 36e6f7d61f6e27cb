package thresholdlb

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// Result-identity digests. The golden suites check that a result
// repeats across worker counts, resumes and twins; the digests below
// pin the results themselves. They were recorded with the round code
// that preceded radix-ordered delivery (merge-sorted move batches, one
// Bool call per task coin, element-by-element stack compaction), so a
// change to a round's bookkeeping that shifts a single random draw,
// delivery position or float rounding fails here even when it is
// deterministic. Each static digest folds seeds 1–6 of its case.

var staticIdentityDigests = map[string]uint64{
	"K200/resource-based/eps=0/pareto":                    0xfe72e4032dc84860,
	"K200/resource-based/eps=0/twopoint":                  0x6a2a1235d6de2749,
	"K200/resource-based/eps=0.2/pareto":                  0x52dd10e805939840,
	"K200/resource-based/eps=0.2/twopoint":                0x05b4542fc6543bd5,
	"K200/mixed/eps=0/pareto":                             0x9874a1dd3bb57afe,
	"K200/mixed/eps=0/twopoint":                           0x6a2a1235d6de2749,
	"K200/mixed/eps=0.2/pareto":                           0xc397f72104222fec,
	"K200/mixed/eps=0.2/twopoint":                         0xd53b6e07581dcf68,
	"K200/user-based-graph/eps=0/pareto":                  0xf85ea286a2f6adfc,
	"K200/user-based-graph/eps=0/twopoint":                0x4e5e362f646e4ef8,
	"K200/user-based-graph/eps=0.2/pareto":                0x1a0dcf14a0adf7fa,
	"K200/user-based-graph/eps=0.2/twopoint":              0x3d1a66e2d2fcc728,
	"K200/user-based/eps=0/pareto":                        0xf85ea286a2f6adfc,
	"K200/user-based/eps=0/twopoint":                      0x4e5e362f646e4ef8,
	"K200/user-based/eps=0.2/pareto":                      0x1a0dcf14a0adf7fa,
	"K200/user-based/eps=0.2/twopoint":                    0x3d1a66e2d2fcc728,
	"K1000/resource-based/eps=0/pareto":                   0x09d1981766d33bd5,
	"K1000/resource-based/eps=0/twopoint":                 0x714780eaf4067c78,
	"K1000/resource-based/eps=0.2/pareto":                 0xf5f56e996145ee9a,
	"K1000/resource-based/eps=0.2/twopoint":               0xb6f67a3ef59fc94a,
	"K1000/mixed/eps=0/pareto":                            0x09d1981766d33bd5,
	"K1000/mixed/eps=0/twopoint":                          0x714780eaf4067c78,
	"K1000/mixed/eps=0.2/pareto":                          0x55a25c29fd9f22ac,
	"K1000/mixed/eps=0.2/twopoint":                        0x2bbb362095961ace,
	"K1000/user-based-graph/eps=0/pareto":                 0xedf30a7b02a014d2,
	"K1000/user-based-graph/eps=0/twopoint":               0xfec6782abfd8fc19,
	"K1000/user-based-graph/eps=0.2/pareto":               0x590e8a48c0fe548f,
	"K1000/user-based-graph/eps=0.2/twopoint":             0x72b0c80219ab0ec5,
	"K1000/user-based/eps=0/pareto":                       0xedf30a7b02a014d2,
	"K1000/user-based/eps=0/twopoint":                     0xfec6782abfd8fc19,
	"K1000/user-based/eps=0.2/pareto":                     0x590e8a48c0fe548f,
	"K1000/user-based/eps=0.2/twopoint":                   0x72b0c80219ab0ec5,
	"torus16/resource-based/eps=0/pareto":                 0x8bb5b53d87a867e7,
	"torus16/resource-based/eps=0/twopoint":               0x1a4a6fe11bd90b7b,
	"torus16/resource-based/eps=0.2/pareto":               0xa16cddd48d8f9ee8,
	"torus16/resource-based/eps=0.2/twopoint":             0x9ba0f4537125808b,
	"torus16/mixed/eps=0/pareto":                          0x95cd992d03f62667,
	"torus16/mixed/eps=0/twopoint":                        0x00e80f60faa1037b,
	"torus16/mixed/eps=0.2/pareto":                        0x7646af69aa7e8661,
	"torus16/mixed/eps=0.2/twopoint":                      0x8bc4d87d1bd18572,
	"torus16/user-based-graph/eps=0/pareto":               0x2c34c1d88172104f,
	"torus16/user-based-graph/eps=0/twopoint":             0x5f5fd4eb42474d7d,
	"torus16/user-based-graph/eps=0.2/pareto":             0x5202e6309b1c301e,
	"torus16/user-based-graph/eps=0.2/twopoint":           0x5534112362470a91,
	"torus16-lazy/resource-based/eps=0/pareto":            0x402beef68f072e2d,
	"torus16-lazy/resource-based/eps=0/twopoint":          0xd438db4708d25c8c,
	"torus16-lazy/resource-based/eps=0.2/pareto":          0xe5632a31fa31305c,
	"torus16-lazy/resource-based/eps=0.2/twopoint":        0xadac0e9cd9645a69,
	"torus16-lazy/mixed/eps=0/pareto":                     0x1f53513495072c8d,
	"torus16-lazy/mixed/eps=0/twopoint":                   0x09ad513f8b7b8888,
	"torus16-lazy/mixed/eps=0.2/pareto":                   0xb80c5c90130419bf,
	"torus16-lazy/mixed/eps=0.2/twopoint":                 0x05dea3150f412f92,
	"torus32/resource-based/eps=0/pareto":                 0x43d8c147c8f11403,
	"torus32/resource-based/eps=0/twopoint":               0x4a4e7ff07fea7424,
	"torus32/resource-based/eps=0.2/pareto":               0xca0abdb75552f04e,
	"torus32/resource-based/eps=0.2/twopoint":             0xf5a9bd28f4b25ee9,
	"torus32/mixed/eps=0/pareto":                          0x73f28f0d263b43e1,
	"torus32/mixed/eps=0/twopoint":                        0x3baca573ef3eec42,
	"torus32/mixed/eps=0.2/pareto":                        0xe4f009cafd322bc5,
	"torus32/mixed/eps=0.2/twopoint":                      0x6f48572d32222b14,
	"torus32/user-based-graph/eps=0/pareto":               0x30271ca99ae5c334,
	"torus32/user-based-graph/eps=0/twopoint":             0x6f6e7d9b5e608fff,
	"torus32/user-based-graph/eps=0.2/pareto":             0xf7a1294aad7fcbfc,
	"torus32/user-based-graph/eps=0.2/twopoint":           0xcafda41586e480ae,
	"torus32-lazy/resource-based/eps=0/pareto":            0xf591958459cb9889,
	"torus32-lazy/resource-based/eps=0/twopoint":          0x316a4abe3f02c033,
	"torus32-lazy/resource-based/eps=0.2/pareto":          0x416571e8bf5ccc72,
	"torus32-lazy/resource-based/eps=0.2/twopoint":        0x8a871a362fc1c94a,
	"torus32-lazy/mixed/eps=0/pareto":                     0x68962cea92b34e08,
	"torus32-lazy/mixed/eps=0/twopoint":                   0xe3cd66b4280b5773,
	"torus32-lazy/mixed/eps=0.2/pareto":                   0x4131c0197594a197,
	"torus32-lazy/mixed/eps=0.2/twopoint":                 0x9f08df2365a50fc6,
	"expander200x6/resource-based/eps=0/pareto":           0xa42673577bb077c2,
	"expander200x6/resource-based/eps=0/twopoint":         0x02b63bef83eed0e2,
	"expander200x6/resource-based/eps=0.2/pareto":         0x0550a1a4bdb53997,
	"expander200x6/resource-based/eps=0.2/twopoint":       0x869de0c59b80028a,
	"expander200x6/mixed/eps=0/pareto":                    0xece7998e28834ab8,
	"expander200x6/mixed/eps=0/twopoint":                  0x66411bb8f2c96fc8,
	"expander200x6/mixed/eps=0.2/pareto":                  0xb800a93920ba2c54,
	"expander200x6/mixed/eps=0.2/twopoint":                0xf1c60a309a6b90e0,
	"expander200x6/user-based-graph/eps=0/pareto":         0xf6489d66a9039a72,
	"expander200x6/user-based-graph/eps=0/twopoint":       0x4fc12261bf09dd61,
	"expander200x6/user-based-graph/eps=0.2/pareto":       0xd374022dc3565d41,
	"expander200x6/user-based-graph/eps=0.2/twopoint":     0x0fed6a04a79c92b1,
	"cube7/resource-based/eps=0/pareto":                   0x03da5b69df91a16b,
	"cube7/resource-based/eps=0/twopoint":                 0xa23042385fa284eb,
	"cube7/resource-based/eps=0.2/pareto":                 0xf9af3fec538e366b,
	"cube7/resource-based/eps=0.2/twopoint":               0x6d0555ca88b47449,
	"cube7/mixed/eps=0/pareto":                            0x1e960d8041c4b2e5,
	"cube7/mixed/eps=0/twopoint":                          0xbcb0ca8384fb7823,
	"cube7/mixed/eps=0.2/pareto":                          0x9482c0c9400bda74,
	"cube7/mixed/eps=0.2/twopoint":                        0xe817e9500111cbb9,
	"cube7/user-based-graph/eps=0/pareto":                 0x235cb7e3d7f782f5,
	"cube7/user-based-graph/eps=0/twopoint":               0xeca671b83fba81fe,
	"cube7/user-based-graph/eps=0.2/pareto":               0xa3f18ac7cdc57cc6,
	"cube7/user-based-graph/eps=0.2/twopoint":             0x1af25ea06ddb3d13,
	"cliquePendant50x2/resource-based/eps=0/pareto":       0x5d937e2c5cee1040,
	"cliquePendant50x2/resource-based/eps=0/twopoint":     0x75d200ea706d3a05,
	"cliquePendant50x2/resource-based/eps=0.2/pareto":     0xd9cbbd84ba6a9a2f,
	"cliquePendant50x2/resource-based/eps=0.2/twopoint":   0xb5c5f55c4a3b5a4d,
	"cliquePendant50x2/mixed/eps=0/pareto":                0x56c206bea13f1fb7,
	"cliquePendant50x2/mixed/eps=0/twopoint":              0x75d200ea706d3a05,
	"cliquePendant50x2/mixed/eps=0.2/pareto":              0x1a1f6491da813c45,
	"cliquePendant50x2/mixed/eps=0.2/twopoint":            0x31a3beac860b35b3,
	"cliquePendant50x2/user-based-graph/eps=0/pareto":     0xb9fa0a39a241a926,
	"cliquePendant50x2/user-based-graph/eps=0/twopoint":   0x7d85d00042bb9f91,
	"cliquePendant50x2/user-based-graph/eps=0.2/pareto":   0xa5ae186d6942a390,
	"cliquePendant50x2/user-based-graph/eps=0.2/twopoint": 0xe09851acf6e5be5c,
}

var dynamicIdentityDigests = map[string]uint64{
	"resource/workers=1":        0xd8d00416e4c99331,
	"resource/workers=2":        0xd8d00416e4c99331,
	"resource/workers=1/layers": 0x8c9eb8fc004c02ee,
	"resource/workers=2/layers": 0x8c9eb8fc004c02ee,
	"user/workers=1":            0xc007f24d215f0176,
	"user/workers=2":            0xc007f24d215f0176,
	"user/workers=1/layers":     0x22c7d6e2575e8052,
	"user/workers=2/layers":     0x22c7d6e2575e8052,
	"mixed/workers=1":           0x26834e9717a1a0c5,
	"mixed/workers=2":           0x26834e9717a1a0c5,
	"mixed/workers=1/layers":    0x14ad3d0882c79d74,
	"mixed/workers=2/layers":    0x14ad3d0882c79d74,
}

// identityMaxRounds caps the static runs (the tight-threshold runs on
// bipartite graphs without the lazy walk can be long); a capped run
// digests like any other.
const identityMaxRounds = 3000

type identityGraph struct {
	name string
	g    *Graph
	m    int  // tasks per run
	lazy bool // LazyWalk for the kernel protocols
	user bool // UserBased is valid (complete graph)
}

type staticIdentityCase struct {
	name   string
	proto  ProtocolKind
	graph  identityGraph
	eps    float64
	pareto bool
}

func staticIdentityCases() []staticIdentityCase {
	k200, k1000 := CompleteGraph(200), CompleteGraph(1000)
	t16, t32 := TorusGraph(16, 16), TorusGraph(32, 32)
	graphs := []identityGraph{
		{name: "K200", g: k200, m: 2000, user: true},
		{name: "K1000", g: k1000, m: 5000, user: true},
		{name: "torus16", g: t16, m: 1500},
		{name: "torus16-lazy", g: t16, m: 1500, lazy: true},
		{name: "torus32", g: t32, m: 3000},
		{name: "torus32-lazy", g: t32, m: 3000, lazy: true},
		{name: "expander200x6", g: ExpanderGraph(200, 6, 7), m: 2000},
		{name: "cube7", g: HypercubeGraph(7), m: 1000},
		{name: "cliquePendant50x2", g: CliquePendantGraph(50, 2), m: 500},
	}
	var out []staticIdentityCase
	for _, g := range graphs {
		protos := []ProtocolKind{ResourceBased, MixedBased}
		if !g.lazy {
			protos = append(protos, UserBasedGraph)
		}
		if g.user {
			protos = append(protos, UserBased)
		}
		for _, p := range protos {
			for _, eps := range []float64{0, 0.2} {
				for _, pareto := range []bool{true, false} {
					w := "twopoint"
					if pareto {
						w = "pareto"
					}
					out = append(out, staticIdentityCase{
						name:  fmt.Sprintf("%s/%v/eps=%g/%s", g.name, p, eps, w),
						proto: p, graph: g, eps: eps, pareto: pareto,
					})
				}
			}
		}
	}
	return out
}

// run executes the case for one seed and folds the result into h:
// Rounds, Balanced, Migrations, the MovedWeight bits and the final
// load vector's bits.
func (c staticIdentityCase) run(t *testing.T, seed uint64, h hash.Hash64) {
	t.Helper()
	weights := TwoPointWeights(c.graph.m, c.graph.m/200, 30)
	if c.pareto {
		weights = ParetoWeights(c.graph.m, 2, 20, seed)
	}
	var last []float64
	sc := Scenario{
		Graph:     c.graph.g,
		Weights:   weights,
		Epsilon:   c.eps,
		Protocol:  c.proto,
		LazyWalk:  c.graph.lazy,
		Seed:      seed,
		MaxRounds: identityMaxRounds,
		OnRound:   func(_ int, loads []float64) { last = loads },
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("%s seed %d: %v", c.name, seed, err)
	}
	if last == nil { // balanced in round 0: every task still on resource 0
		last = make([]float64, c.graph.g.N())
		for _, w := range weights {
			last[0] += w
		}
	}
	balanced := uint64(0)
	if res.Balanced {
		balanced = 1
	}
	putU64(h, uint64(res.Rounds), balanced, uint64(res.Migrations), math.Float64bits(res.MovedWeight), uint64(len(last)))
	for _, l := range last {
		putU64(h, math.Float64bits(l))
	}
}

func putU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// TestStaticResultsMatchRecorded checks every static case's digest over
// seeds 1–6 against the recorded one.
func TestStaticResultsMatchRecorded(t *testing.T) {
	for _, c := range staticIdentityCases() {
		h := fnv.New64a()
		for seed := uint64(1); seed <= 6; seed++ {
			c.run(t, seed, h)
		}
		checkIdentity(t, staticIdentityDigests, c.name, h.Sum64())
	}
}

type dynamicIdentityCase struct {
	name string
	sc   DynamicScenario
}

func dynamicIdentityCases(t *testing.T) []dynamicIdentityCase {
	type engine struct {
		name    string
		g       *Graph
		proto   ProtocolKind
		service Service
	}
	engines := []engine{
		{"resource", ExpanderGraph(200, 6, 11), ResourceBased, WeightProportionalService(1)},
		{"user", CompleteGraph(100), UserBased, GeometricService(0.05)},
		{"mixed", TorusGraph(12, 12), MixedBased, GeometricService(0.1)},
	}
	var out []dynamicIdentityCase
	for _, e := range engines {
		n := e.g.N()
		topo, err := SynthTopology(n, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		rack0 := topo.RackList(0, nil)
		for _, layers := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				sc := DynamicScenario{
					Graph:    e.g,
					Protocol: e.proto,
					LazyWalk: true,
					Seed:     23,
					Workers:  workers,
					Rounds:   400,
					Arrivals: PoissonArrivals(0.85*float64(n)/1.95, ParetoDist(2, 20)),
					Service:  e.service,
				}
				name := fmt.Sprintf("%s/workers=%d", e.name, workers)
				if layers {
					name += "/layers"
					sc.Faults = &FaultPlan{Loss: 0.02, DelayProb: 0.01, DelayMax: 4, DupProb: 0.005, Seed: 29}
					sc.Churn = ChurnSpec{Events: []ChurnEvent{
						{Round: 50, Every: 100, DownList: rack0},
						{Round: 80, Every: 100, UpList: rack0},
					}}
					sc.Rehome = PowerOfDRehome(2)
					sc.TraceSample = 1.0 / 16
					sc.Subscribe(ObsSubOptions{Capacity: 1 << 12, Kinds: ObsMask(KindTrace)})
				}
				out = append(out, dynamicIdentityCase{name, sc})
			}
		}
	}
	return out
}

// TestDynamicResultsMatchRecorded checks every dynamic case's digest of
// its DynamicResult — counters, windows, recoveries and histograms —
// against the recorded one.
func TestDynamicResultsMatchRecorded(t *testing.T) {
	for _, c := range dynamicIdentityCases(t) {
		res, err := c.sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		digestValue(h, reflect.ValueOf(res))
		checkIdentity(t, dynamicIdentityDigests, c.name, h.Sum64())
	}
}

// digestValue folds every integer, bool and float bit pattern of v
// into h, field by field and element by element.
func digestValue(h hash.Hash64, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		putU64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		putU64(h, v.Uint())
	case reflect.Bool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		putU64(h, b)
	case reflect.Float32, reflect.Float64:
		putU64(h, math.Float64bits(v.Float()))
	default:
		panic("digestValue: unexpected kind " + v.Kind().String())
	}
}

func checkIdentity(t *testing.T, want map[string]uint64, name string, got uint64) {
	t.Helper()
	w, ok := want[name]
	switch {
	case !ok:
		t.Errorf("no recorded digest: %q: %#016x,", name, got)
	case w != got:
		t.Errorf("%s: digest %#016x, recorded %#016x", name, got, w)
	}
}
