package cli

import (
	"strings"
	"testing"

	lb "repro"
)

func TestBuildEveryKind(t *testing.T) {
	cases := []struct {
		spec  GraphSpec
		wantN int
	}{
		{GraphSpec{Kind: "complete", N: 10}, 10},
		{GraphSpec{Kind: "grid", N: 9}, 9},
		{GraphSpec{Kind: "grid", N: 10}, 9}, // rounds to 3x3
		{GraphSpec{Kind: "torus", N: 16}, 16},
		{GraphSpec{Kind: "hypercube", N: 8}, 8},
		{GraphSpec{Kind: "hypercube", N: 9}, 16}, // next power of two
		{GraphSpec{Kind: "expander", N: 12, K: 3, Seed: 1}, 12},
		{GraphSpec{Kind: "gnp", N: 20, P: 0.4, Seed: 1}, 20},
		{GraphSpec{Kind: "cliquependant", N: 10, K: 2}, 10},
	}
	for _, c := range cases {
		g, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if g.N() != c.wantN {
			t.Fatalf("%+v: n=%d want %d", c.spec, g.N(), c.wantN)
		}
		if !g.Connected() {
			t.Fatalf("%+v: disconnected", c.spec)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		spec GraphSpec
		want string
	}{
		{GraphSpec{Kind: "mobius", N: 8}, "unknown graph kind"},
		{GraphSpec{Kind: "complete", N: 0}, "out of range"},
		{GraphSpec{Kind: "expander", N: 8, K: 0}, "degree"},
		{GraphSpec{Kind: "expander", N: 8, K: 9}, "degree"},
		{GraphSpec{Kind: "gnp", N: 8, P: 1.5}, "probability"},
		{GraphSpec{Kind: "cliquependant", N: 8, K: 0}, "pendant"},
	}
	for _, c := range cases {
		if _, err := c.spec.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%+v: want error containing %q, got %v", c.spec, c.want, err)
		}
	}
}

func TestKindsCoverBuild(t *testing.T) {
	for _, kind := range Kinds() {
		spec := GraphSpec{Kind: kind, N: 16, K: 3, P: 0.4, Seed: 2}
		if _, err := spec.Build(); err != nil {
			t.Fatalf("advertised kind %q fails: %v", kind, err)
		}
	}
}

func TestProtocol(t *testing.T) {
	for name, want := range map[string]lb.ProtocolKind{
		"user": lb.UserBased, "resource": lb.ResourceBased,
		"usergraph": lb.UserBasedGraph, "mixed": lb.MixedBased,
	} {
		if got, err := Protocol(name); err != nil || got != want {
			t.Fatalf("Protocol(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := Protocol("greedy"); err == nil || err.Error() != `unknown protocol "greedy"` {
		t.Fatalf("Protocol(greedy) error = %v", err)
	}
}

func TestService(t *testing.T) {
	for name, want := range map[string]string{
		"weight": lb.WeightProportionalService(2).Name(),
		"geom":   lb.GeometricService(0.1).Name(),
	} {
		svc, err := Service(name, 2, 0.1)
		if err != nil || svc.Name() != want {
			t.Fatalf("Service(%q) = %v, %v; want %s", name, svc, err, want)
		}
	}
	if _, err := Service("fifo", 1, 0.1); err == nil || err.Error() != `unknown service discipline "fifo"` {
		t.Fatalf("Service(fifo) error = %v", err)
	}
}
