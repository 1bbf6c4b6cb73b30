package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// Policy is a location privacy policy: a privacy level ε paired with a
// location policy graph G. An algorithm A satisfies {ε,G}-location privacy
// iff Pr[A(s)=z] ≤ e^ε·Pr[A(s')=z] for every edge {s,s'} of G (Def. 2.4).
type Policy struct {
	Epsilon float64
	Graph   *policygraph.Graph
}

// NewPolicy validates and returns a policy.
func NewPolicy(eps float64, g *policygraph.Graph) (Policy, error) {
	p := Policy{Epsilon: eps, Graph: g}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// Validate checks the policy invariants.
func (p Policy) Validate() error {
	if p.Graph == nil {
		return errors.New("core: policy has no graph")
	}
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("core: epsilon must be positive and finite, got %v", p.Epsilon)
	}
	return nil
}

// BrokenEdge is a policy edge whose indistinguishability requirement is
// unattainable under adversarial knowledge: one endpoint is inside the
// adversary's feasible set and the other is not, so the adversary can
// already distinguish them a priori.
type BrokenEdge struct {
	Inside, Outside int
}

// BrokenEdges returns the policy edges broken by adversarial knowledge
// that the user is inside `feasible` (e.g. a δ-location set from a
// mobility model).
func BrokenEdges(g *policygraph.Graph, feasible []int) []BrokenEdge {
	in := make(map[int]bool, len(feasible))
	for _, u := range feasible {
		in[u] = true
	}
	var out []BrokenEdge
	for _, e := range g.Edges() {
		switch {
		case in[e[0]] && !in[e[1]]:
			out = append(out, BrokenEdge{Inside: e[0], Outside: e[1]})
		case in[e[1]] && !in[e[0]]:
			out = append(out, BrokenEdge{Inside: e[1], Outside: e[0]})
		}
	}
	return out
}

// IsFeasible reports whether every policy edge touching the feasible set
// stays inside it, i.e. the policy is attainable as stated.
func IsFeasible(g *policygraph.Graph, feasible []int) bool {
	return len(BrokenEdges(g, feasible)) == 0
}

// RepairReport records what Repair changed.
type RepairReport struct {
	Broken     []BrokenEdge // edges dropped because they left the feasible set
	Surrogates [][2]int     // edges added to restore plausible deniability
}

// Repair produces the protectable policy under adversarial knowledge
// `feasible`: the policy restricted to the feasible set, with surrogate
// edges added so that no node that originally required protection is left
// unprotected. For each node u in the feasible set that had policy edges
// but lost all of them, a surrogate edge to the Euclidean-nearest other
// feasible node is added (this adapts the "minimum protectable graph"
// construction of the PGLP technical report to grid maps; any surrogate
// keeps u plausibly deniable while staying attainable).
//
// The grid supplies the distance metric for surrogate selection. Repair
// never mutates its input.
func Repair(g *policygraph.Graph, feasible []int, grid *geo.Grid) (*policygraph.Graph, RepairReport) {
	report := RepairReport{Broken: BrokenEdges(g, feasible)}
	repaired := g.InducedSubgraph(feasible)
	if len(feasible) < 2 {
		return repaired, report
	}
	for _, u := range feasible {
		if u < 0 || u >= g.NumNodes() {
			continue
		}
		if g.Degree(u) == 0 || repaired.Degree(u) > 0 {
			continue // never protected, or still protected
		}
		// Find the nearest other feasible node.
		best, bestD := -1, math.Inf(1)
		for _, v := range feasible {
			if v == u || v < 0 || v >= g.NumNodes() {
				continue
			}
			if d := grid.EuclidCells(u, v); d < bestD {
				best, bestD = v, d
			}
		}
		if best >= 0 {
			repaired.AddEdge(u, best)
			report.Surrogates = append(report.Surrogates, [2]int{u, best})
		}
	}
	return repaired, report
}
