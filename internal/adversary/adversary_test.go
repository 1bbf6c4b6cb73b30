package adversary

import (
	"math"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
)

func TestNewBayesianValidation(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	if _, err := NewBayesian(grid, []float64{1, 0}); err == nil {
		t.Error("wrong prior length should error")
	}
	if _, err := NewBayesian(grid, []float64{-1, 1, 1, 1}); err == nil {
		t.Error("negative prior should error")
	}
	if _, err := NewBayesian(grid, []float64{0, 0, 0, 0}); err == nil {
		t.Error("zero prior should error")
	}
	a, err := NewBayesian(grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.prior {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("uniform prior = %v", a.prior)
		}
	}
	// Prior normalisation.
	b, _ := NewBayesian(grid, []float64{2, 2, 0, 0})
	if p := b.prior; math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("normalised prior = %v", p)
	}
}

func TestPosteriorGEM(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := policygraph.GridEightNeighbor(grid)
	m, err := mechanism.NewGraphExponential(grid, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewBayesian(grid, nil)
	// Observe the center cell's center: posterior should peak at cell 4.
	post, err := a.Posterior(m, grid.Center(4))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range post {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posterior sums to %v", sum)
	}
	if MAP(post) != 4 {
		t.Errorf("MAP = %d, want 4 (posterior %v)", MAP(post), post)
	}
}

func TestPosteriorExactDisclosureConvention(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	// Gc-style policy: cell 4 is disclosable, others protected.
	g := policygraph.IsolateNodes(policygraph.GridEightNeighbor(grid), []int{4})
	m, err := mechanism.NewGraphLaplace(grid, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewBayesian(grid, nil)
	post, err := a.Posterior(m, grid.Center(4))
	if err != nil {
		t.Fatal(err)
	}
	if post[4] != 1 {
		t.Errorf("exact disclosure posterior = %v, want point mass on 4", post)
	}
	// A generic observation point keeps mass off the isolated cell.
	post2, err := a.Posterior(m, geo.Pt(0.3, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if post2[4] != 0 {
		t.Errorf("off-center observation gave isolated cell mass %v", post2[4])
	}
}

func TestEstimators(t *testing.T) {
	grid := geo.MustGrid(1, 3, 1)
	dist := []float64{0.2, 0.5, 0.3}
	if MAP(dist) != 1 {
		t.Errorf("MAP = %d", MAP(dist))
	}
	c := Centroid(grid, dist)
	want := 0.2*0.5 + 0.5*1.5 + 0.3*2.5
	if math.Abs(c.X-want) > 1e-12 {
		t.Errorf("centroid X = %v, want %v", c.X, want)
	}
	med := Medoid(grid, dist)
	if med != 1 {
		t.Errorf("medoid = %d, want 1", med)
	}
	// Medoid with point mass.
	if Medoid(grid, []float64{0, 0, 1}) != 2 {
		t.Error("point-mass medoid wrong")
	}
	if Medoid(grid, []float64{0, 0, 0}) != 0 {
		t.Error("empty-support medoid should default to 0")
	}
	if EstimatorMAP.String() != "map" || EstimatorMedoid.String() != "medoid" ||
		EstimatorCentroid.String() != "centroid" || Estimator(9).String() != "unknown" {
		t.Error("estimator names wrong")
	}
}

func TestExpectedErrorDecreasesWithEps(t *testing.T) {
	grid := geo.MustGrid(5, 5, 1)
	g := policygraph.GridEightNeighbor(grid)
	a, _ := NewBayesian(grid, nil)
	errAt := func(eps float64) float64 {
		m, err := mechanism.NewGraphExponential(grid, g, eps)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.ExpectedError(m, EstimatorMedoid, 1500, dp.NewRand(7))
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanError
	}
	weak, strong := errAt(5), errAt(0.1)
	if weak >= strong {
		t.Errorf("adversary error should grow as ε shrinks: ε=5 → %v, ε=0.1 → %v", weak, strong)
	}
}

func TestExpectedErrorNullMechanismIsZero(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	m, _ := mechanism.NewNull(grid)
	a, _ := NewBayesian(grid, nil)
	rep, err := a.ExpectedError(m, EstimatorMAP, 300, dp.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanError != 0 || rep.HitRate != 1 {
		t.Errorf("null mechanism: error=%v hit=%v, want 0 and 1", rep.MeanError, rep.HitRate)
	}
	if _, err := a.ExpectedError(m, EstimatorMAP, 0, dp.NewRand(1)); err == nil {
		t.Error("zero rounds should error")
	}
}

func TestTrackerFollowsTrajectory(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridEightNeighbor(grid)
	m, err := mechanism.NewGraphExponential(grid, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	chain := markov.LazyRandomWalk(16, func(i int) []int {
		return grid.Neighbors8(i)
	}, 0.3)
	tr, err := NewTracker(grid, m, chain, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := dp.NewRand(11)
	truth := []int{0, 1, 2, 6, 10}
	var lastEst geo.Point
	for _, s := range truth {
		z, err := m.Release(rng, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Observe(z); err != nil {
			t.Fatal(err)
		}
		lastEst = tr.Estimate(EstimatorMedoid)
	}
	if d := geo.Dist(lastEst, grid.Center(10)); d > 3 {
		t.Errorf("tracker estimate %v too far from truth (d=%v)", lastEst, d)
	}
	if ds := tr.filter.DeltaSet(0.5); len(ds) == 0 || len(ds) > 16 {
		t.Errorf("delta set size %d unreasonable", len(ds))
	}
}

func TestTrackerValidation(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	m, _ := mechanism.NewNull(grid)
	if _, err := NewTracker(grid, m, markov.UniformChain(9), nil); err == nil {
		t.Error("chain/grid mismatch should error")
	}
}

func TestTrackingError(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.GridEightNeighbor(grid)
	chain := markov.LazyRandomWalk(16, func(i int) []int { return grid.Neighbors8(i) }, 0.3)
	m, _ := mechanism.NewGraphExponential(grid, g, 1)
	e, err := TrackingError(grid, m, chain, []int{5, 6, 7, 11}, EstimatorMedoid, dp.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 || e > 6 {
		t.Errorf("tracking error %v out of plausible range", e)
	}
	if _, err := TrackingError(grid, m, chain, nil, EstimatorMAP, dp.NewRand(1)); err == nil {
		t.Error("empty trajectory should error")
	}
}

func TestRemapImprovesUtilityOnSkewedPrior(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	g := policygraph.Complete(16, nil)
	m, err := mechanism.NewGraphExponential(grid, g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Skewed prior: user is almost always in cell 5.
	prior := make([]float64, 16)
	for i := range prior {
		prior[i] = 0.01
	}
	prior[5] = 1
	var s float64
	for _, v := range prior {
		s += v
	}
	for i := range prior {
		prior[i] /= s
	}
	rng := dp.NewRand(10)
	var rawErr, remapErr float64
	const rounds = 800
	for i := 0; i < rounds; i++ {
		z, err := m.Release(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		rawErr += geo.Dist(z, grid.Center(5))
		r, err := Remap(grid, prior, m, z)
		if err != nil {
			t.Fatal(err)
		}
		remapErr += geo.Dist(r, grid.Center(5))
	}
	if remapErr >= rawErr {
		t.Errorf("remap should improve utility under a skewed prior: raw %v vs remap %v",
			rawErr/rounds, remapErr/rounds)
	}
}
