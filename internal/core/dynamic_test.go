package core

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
)

func gridWalkChain(grid *geo.Grid, stay float64) *markov.Chain {
	return markov.LazyRandomWalk(grid.NumCells(), grid.Neighbors8, stay)
}

func TestNewDynamicReleaserValidation(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	pol, _ := NewPolicy(1, policygraph.GridEightNeighbor(grid))
	chain := gridWalkChain(grid, 0.3)
	if _, err := NewDynamicReleaser(grid, Policy{}, mechanism.KindGEM, chain, nil, 0.1); err == nil {
		t.Error("invalid policy should error")
	}
	if _, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, markov.UniformChain(3), nil, 0.1); err == nil {
		t.Error("chain/grid mismatch should error")
	}
	if _, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, nil, -0.1); err == nil {
		t.Error("negative delta should error")
	}
	if _, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, nil, 1); err == nil {
		t.Error("delta=1 should error")
	}
	if _, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, nil, 0.05); err != nil {
		t.Errorf("valid construction failed: %v", err)
	}
}

func TestDynamicStepBasics(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	pol, _ := NewPolicy(1, policygraph.GridEightNeighbor(grid))
	chain := gridWalkChain(grid, 0.3)
	d, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(4)
	res, err := d.Step(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaSetSize <= 0 || res.DeltaSetSize > 16 {
		t.Errorf("delta set size %d", res.DeltaSetSize)
	}
	if !grid.InRange(res.Cell) {
		t.Errorf("released cell %d out of range", res.Cell)
	}
	if _, err := d.Step(rng, 99); err == nil {
		t.Error("out-of-range cell should error")
	}
}

func TestDynamicBeliefSharpensOverTrajectory(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	pol, _ := NewPolicy(2, policygraph.GridEightNeighbor(grid))
	chain := gridWalkChain(grid, 0.5)
	d, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(8)
	// User sits still at cell 5; the public belief should concentrate
	// near it (that concentration is exactly what shrinks the δ-set).
	var last StepResult
	for i := 0; i < 10; i++ {
		r, err := d.Step(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	belief := d.Belief()
	var mass5 float64
	for _, n := range append(grid.Neighbors8(5), 5) {
		mass5 += belief[n]
	}
	if mass5 < 0.5 {
		t.Errorf("belief mass near true cell = %v, want concentrated", mass5)
	}
	if last.DeltaSetSize >= 16 {
		t.Errorf("delta set did not shrink: %d", last.DeltaSetSize)
	}
}

func TestDynamicRepairDiagnostics(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	// A long-range policy: cell 0 is protected only with the far corner.
	g := policygraph.New(16)
	g.AddEdge(0, 15)
	g.AddEdge(1, 14)
	pol, _ := NewPolicy(1, g)
	chain := gridWalkChain(grid, 0.3)
	// Tight delta: the feasible set around the start will exclude the far
	// corner, breaking the policy edge and forcing a surrogate.
	prior := make([]float64, 16)
	prior[0] = 1
	d, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, prior, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(3)
	res, err := d.Step(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("policy should be infeasible under the tight δ-set")
	}
	if res.BrokenEdges == 0 {
		t.Error("expected broken edges")
	}
	if res.SurrogateEdges == 0 {
		t.Error("expected surrogate protection for node 0")
	}
}

func TestDynamicSurpriseLocation(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	pol, _ := NewPolicy(1, policygraph.GridEightNeighbor(grid))
	chain := gridWalkChain(grid, 0.3)
	// Prior pinned at cell 0, but the user is actually at cell 15 — a
	// total surprise. The pipeline must keep going.
	prior := make([]float64, 16)
	prior[0] = 1
	d, err := NewDynamicReleaser(grid, pol, mechanism.KindGEM, chain, prior, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(5)
	res, err := d.Step(rng, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaSetSize < 2 {
		t.Error("surprise cell should have been added to the feasible set")
	}
	// Subsequent steps still work.
	if _, err := d.Step(rng, 15); err != nil {
		t.Fatalf("post-surprise step failed: %v", err)
	}
}

func TestDynamicTrajectoryAndPrivacySpotCheck(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	pol, _ := NewPolicy(0.8, policygraph.GridEightNeighbor(grid))
	chain := gridWalkChain(grid, 0.4)
	d, err := NewDynamicReleaser(grid, pol, mechanism.KindGLM, chain, nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(13)
	for i, c := range []int{0, 1, 2, 6, 10, 11} {
		r, err := d.Step(rng, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(r.Point.X) || !grid.InRange(r.Cell) {
			t.Fatalf("step %d: bad release %+v", i, r)
		}
	}
	if _, err := d.Step(rng, 99); err == nil {
		t.Error("bad trajectory should error")
	}
}

// TestDynamicRepairedPolicyStillPrivate verifies that each per-step
// repaired policy is honoured by the mechanism built for it (Def. 2.4 on
// the repaired graph).
func TestDynamicRepairedPolicyStillPrivate(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	base := policygraph.GridEightNeighbor(grid)
	eps := 1.0
	chain := gridWalkChain(grid, 0.4)
	f, err := markov.NewFilter(chain, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(17)
	// Simulate the per-step construction directly for a few beliefs.
	for step := 0; step < 5; step++ {
		f.Predict()
		set := f.DeltaSet(0.1)
		repaired, _ := Repair(base, set, grid)
		m, err := mechanism.New(mechanism.KindGEM, grid, repaired, eps)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := NewPolicy(eps, repaired)
		rep := VerifyPGLP(m, p, grid, 4, rng)
		if !rep.Satisfied {
			t.Fatalf("step %d: repaired policy violated (ratio %v)", step, rep.MaxNormalizedRatio)
		}
		// Condition the belief on a synthetic release to move forward.
		z, err := m.Release(rng, set[0])
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Update(func(s int) float64 {
			l := m.Likelihood(s, z)
			if math.IsInf(l, 1) {
				return 1
			}
			return l
		})
	}
}
