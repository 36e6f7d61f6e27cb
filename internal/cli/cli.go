// Package cli holds the flag-value parsing shared by the command-line
// tools (lbsim, lbgraph, lbdyn, lbserve): graph-family construction
// from string parameters, protocol-name resolution and the service
// discipline.
package cli

import (
	"fmt"
	"math"

	lb "repro"
	"repro/internal/graph"
	"repro/internal/rng"
)

// GraphSpec describes a graph family selection from CLI flags.
type GraphSpec struct {
	Kind string  // complete|grid|torus|hypercube|expander|gnp|cliquependant
	N    int     // target size (rounded per family)
	K    int     // pendant links / expander degree
	P    float64 // G(n,p) edge probability
	Seed uint64
}

// Build constructs the requested graph. Sizes are rounded to the
// family's natural grid (square side, power of two, …); the returned
// graph's N() reports the actual size.
func (sp GraphSpec) Build() (*graph.Graph, error) {
	if sp.N < 1 {
		return nil, fmt.Errorf("cli: graph size %d out of range", sp.N)
	}
	switch sp.Kind {
	case "complete":
		return graph.Complete(sp.N), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(sp.N))))
		return graph.Grid2D(side, side, false), nil
	case "torus":
		side := int(math.Round(math.Sqrt(float64(sp.N))))
		return graph.Grid2D(side, side, true), nil
	case "hypercube":
		dim := 0
		for 1<<uint(dim) < sp.N {
			dim++
		}
		return graph.Hypercube(dim), nil
	case "expander":
		if sp.K < 1 || sp.K >= sp.N {
			return nil, fmt.Errorf("cli: expander degree %d invalid for n=%d", sp.K, sp.N)
		}
		return graph.RandomRegular(sp.N, sp.K, rng.NewSeeded(sp.Seed)), nil
	case "gnp":
		if sp.P < 0 || sp.P > 1 {
			return nil, fmt.Errorf("cli: G(n,p) probability %v out of [0,1]", sp.P)
		}
		r := rng.NewSeeded(sp.Seed)
		return graph.GenerateConnected(1000, func() *graph.Graph {
			return graph.ErdosRenyi(sp.N, sp.P, r)
		}), nil
	case "cliquependant":
		if sp.K < 1 || sp.K > sp.N-1 {
			return nil, fmt.Errorf("cli: pendant links %d invalid for n=%d", sp.K, sp.N)
		}
		return graph.CliquePendant(sp.N, sp.K), nil
	default:
		return nil, fmt.Errorf("cli: unknown graph kind %q", sp.Kind)
	}
}

// Kinds lists the accepted graph kind strings (for usage messages).
func Kinds() []string {
	return []string{"complete", "grid", "torus", "hypercube", "expander", "gnp", "cliquependant"}
}

// Protocol resolves a -proto value: user | resource | usergraph | mixed.
func Protocol(name string) (lb.ProtocolKind, error) {
	switch name {
	case "user":
		return lb.UserBased, nil
	case "resource":
		return lb.ResourceBased, nil
	case "usergraph":
		return lb.UserBasedGraph, nil
	case "mixed":
		return lb.MixedBased, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", name)
	}
}

// Service resolves a -service value: weight serves rate weight-units
// per resource per round, geom departs each task with probability p
// per round.
func Service(name string, rate, p float64) (lb.Service, error) {
	switch name {
	case "weight":
		return lb.WeightProportionalService(rate), nil
	case "geom":
		return lb.GeometricService(p), nil
	default:
		return nil, fmt.Errorf("unknown service discipline %q", name)
	}
}
