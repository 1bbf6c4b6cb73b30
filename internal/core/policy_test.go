package core

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func TestNewPolicyValidation(t *testing.T) {
	g := policygraph.Path(4)
	if _, err := NewPolicy(1, g); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if _, err := NewPolicy(0, g); err == nil {
		t.Error("zero epsilon should error")
	}
	if _, err := NewPolicy(-1, g); err == nil {
		t.Error("negative epsilon should error")
	}
	if _, err := NewPolicy(math.NaN(), g); err == nil {
		t.Error("NaN epsilon should error")
	}
	if _, err := NewPolicy(1, nil); err == nil {
		t.Error("nil graph should error")
	}
}

func TestBrokenEdgesAndFeasibility(t *testing.T) {
	g := policygraph.Path(5) // 0-1-2-3-4
	// Adversary knows the user is in {1,2,3}: edges (0,1) and (3,4) break.
	broken := BrokenEdges(g, []int{1, 2, 3})
	if len(broken) != 2 {
		t.Fatalf("broken = %v, want 2", broken)
	}
	seen := map[int]int{}
	for _, b := range broken {
		seen[b.Inside] = b.Outside
	}
	if seen[1] != 0 || seen[3] != 4 {
		t.Errorf("broken edges wrong: %v", broken)
	}
	if IsFeasible(g, []int{1, 2, 3}) {
		t.Error("policy with broken edges should be infeasible")
	}
	if !IsFeasible(g, []int{0, 1, 2, 3, 4}) {
		t.Error("full knowledge set should be feasible")
	}
	if !IsFeasible(g, []int{2}) == false {
		// {2} breaks edges (1,2) and (2,3).
		t.Error("singleton set should be infeasible here")
	}
}

func TestRepairInducesAndAddsSurrogates(t *testing.T) {
	grid := geo.MustGrid(1, 5, 1)
	g := policygraph.Path(5)
	// Knowledge {0, 2, 4}: all original edges break; every feasible node
	// that was protected needs a surrogate.
	repaired, report := Repair(g, []int{0, 2, 4}, grid)
	if len(report.Broken) != 4 {
		t.Errorf("broken = %v, want 4 edges", report.Broken)
	}
	for _, u := range []int{0, 2, 4} {
		if repaired.Degree(u) == 0 {
			t.Errorf("node %d left unprotected after repair", u)
		}
	}
	// Surrogates connect to the nearest feasible node: 0→2, 2→0 or 4, 4→2.
	for _, s := range report.Surrogates {
		if d := grid.EuclidCells(s[0], s[1]); d > 2 {
			t.Errorf("surrogate %v connects distant nodes (d=%v)", s, d)
		}
	}
	// Original graph untouched.
	if g.NumEdges() != 4 {
		t.Error("Repair mutated its input")
	}
}

func TestRepairFeasiblePolicyIsIdentityOnSet(t *testing.T) {
	grid := geo.MustGrid(2, 3, 1)
	g := policygraph.Complete(6, []int{0, 1, 2})
	repaired, report := Repair(g, []int{0, 1, 2}, grid)
	if len(report.Broken) != 0 || len(report.Surrogates) != 0 {
		t.Errorf("feasible policy should need no repair: %+v", report)
	}
	if !repaired.HasEdge(0, 1) || !repaired.HasEdge(1, 2) || !repaired.HasEdge(0, 2) {
		t.Error("repair dropped feasible edges")
	}
}

func TestRepairUnprotectedNodesStayUnprotected(t *testing.T) {
	grid := geo.MustGrid(1, 4, 1)
	g := policygraph.New(4)
	g.AddEdge(0, 1)
	// Node 3 was never protected (degree 0): repair must not invent
	// protection for it.
	repaired, report := Repair(g, []int{0, 1, 3}, grid)
	if repaired.Degree(3) != 0 {
		t.Error("unprotected node gained surrogate edges")
	}
	if len(report.Surrogates) != 0 {
		t.Errorf("unexpected surrogates: %v", report.Surrogates)
	}
}

func TestRepairSingletonFeasibleSet(t *testing.T) {
	grid := geo.MustGrid(1, 3, 1)
	g := policygraph.Path(3)
	repaired, _ := Repair(g, []int{1}, grid)
	// Nothing to connect to: node stays isolated (disclosed). This is the
	// unavoidable no-deniability case.
	if repaired.Degree(1) != 0 {
		t.Error("singleton set cannot be protected")
	}
}
