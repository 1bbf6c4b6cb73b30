package panda

import (
	"math"
	"testing"
)

func TestGenerateTracesFacade(t *testing.T) {
	o := testOptions()
	d, err := GenerateTraces(o, 10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 10 || d.Steps() != 20 {
		t.Fatalf("shape %d x %d", d.NumUsers(), d.Steps())
	}
	cells := d.Cells(0)
	if len(cells) != 20 {
		t.Fatalf("Cells(0) len = %d", len(cells))
	}
	if d.Cells(99) != nil {
		t.Error("unknown user should be nil")
	}
	// Returned slice is a copy.
	cells[0] = -1
	if d.Cells(0)[0] == -1 {
		t.Error("Cells should return a copy")
	}
	if _, err := GenerateTraces(Options{}, 10, 20, 3); err == nil {
		t.Error("bad options should error")
	}
}

func TestGenerateCheckinsFacade(t *testing.T) {
	d, err := GenerateCheckins(testOptions(), 8, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 8 || d.Steps() != 15 {
		t.Fatalf("shape %d x %d", d.NumUsers(), d.Steps())
	}
}

func TestPerturbFacade(t *testing.T) {
	o := testOptions()
	d, _ := GenerateTraces(o, 5, 10, 1)
	base, _ := BaselinePolicy(o)
	p, err := d.Perturb(base, 1, GEM, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumUsers() != d.NumUsers() || p.Steps() != d.Steps() {
		t.Fatal("perturbed shape mismatch")
	}
	// The original dataset must be untouched.
	diff := 0
	for u := 0; u < d.NumUsers(); u++ {
		a, b := d.Cells(u), p.Cells(u)
		for i := range a {
			if a[i] != b[i] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("perturbation changed nothing at ε=1 (suspicious)")
	}
}

func TestOutbreakAndR0Facade(t *testing.T) {
	o := testOptions()
	d, _ := GenerateTraces(o, 30, 30, 5)
	ob, err := d.SimulateOutbreak([]int{0, 1}, 0.5, 1, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ob.Incidence) != 30 {
		t.Errorf("incidence length = %d", len(ob.Incidence))
	}
	if ob.TotalInfected != len(ob.InfectedUsers) {
		t.Errorf("infected count mismatch: %d vs %d", ob.TotalInfected, len(ob.InfectedUsers))
	}
	r0, err := d.EstimateR0(0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r0 < 0 {
		t.Errorf("R0 = %v", r0)
	}
	if _, err := d.SimulateOutbreak(nil, 0.5, 1, 6, 1); err == nil {
		t.Error("no seeds should error")
	}
	// NaN passes a p < 0 || p > 1 test; it and negative rates must not.
	if _, err := d.SimulateOutbreak([]int{0, 1}, math.NaN(), 1, 6, 11); err == nil {
		t.Error("NaN transmission probability should error")
	}
	for _, c := range []struct {
		p     float64
		steps int
	}{{-1, 8}, {0.4, -8}, {math.NaN(), 8}} {
		if r0, err := d.EstimateR0(c.p, c.steps); err == nil {
			t.Errorf("EstimateR0(%v, %d) = %v, want an error", c.p, c.steps, r0)
		}
	}
}

func TestTraceContactsFacade(t *testing.T) {
	o := testOptions()
	d, _ := GenerateTraces(o, 20, 20, 7)
	base, _ := BaselinePolicy(o)
	res, err := d.TraceContacts(base, []int{0}, 1, GEM, 2, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != 1 || res.Recall != 1 {
		t.Errorf("dynamic protocol should be exact: p=%v r=%v", res.Precision, res.Recall)
	}
	if len(res.InfectedCells) == 0 {
		t.Error("no infected cells derived")
	}
}

func TestRandomPolicyFacade(t *testing.T) {
	o := testOptions()
	pg, err := RandomPolicy(o, 20, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumEdges() == 0 {
		t.Error("expected some edges")
	}
	if len(pg.IsolatedCells()) < 64-20 {
		t.Error("most cells should stay isolated")
	}
	if _, err := RandomPolicy(o, -1, 0.3, 3); err == nil {
		t.Error("negative size should error")
	}
	if _, err := RandomPolicy(o, 10, 1.5, 3); err == nil {
		t.Error("bad density should error")
	}
	if _, err := RandomPolicy(o, 10, math.NaN(), 3); err == nil {
		t.Error("NaN density should error")
	}
}

func TestMeasureUtilityAndPrivacyFacade(t *testing.T) {
	o := testOptions()
	base, _ := BaselinePolicy(o)
	uLo, err := MeasureUtility(o, base, 0.3, GEM, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	uHi, err := MeasureUtility(o, base, 3, GEM, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if uHi >= uLo {
		t.Errorf("utility error should fall with ε: %v vs %v", uLo, uHi)
	}
	pLo, err := MeasurePrivacy(o, base, 0.3, GEM, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	pHi, err := MeasurePrivacy(o, base, 3, GEM, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pHi > pLo {
		t.Errorf("adversary error should not grow with ε: %v vs %v", pLo, pHi)
	}
	if _, err := MeasureUtility(o, base, 1, GEM, 0, 5); err == nil {
		t.Error("zero samples should error")
	}
}

func TestMeasurePrivacyWithPriorFacade(t *testing.T) {
	o := testOptions()
	base, _ := BaselinePolicy(o)
	// Point-mass prior: the adversary already knows everything — error 0.
	prior := make([]float64, 64)
	prior[5] = 1
	e, err := MeasurePrivacyWithPrior(o, base, 1, GEM, prior, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("point-mass prior error = %v, want 0", e)
	}
	if _, err := MeasurePrivacyWithPrior(o, base, 1, GEM, []float64{1}, 100, 3); err == nil {
		t.Error("wrong prior length should error")
	}
}

func TestRoadNetworkFacade(t *testing.T) {
	o := Options{Rows: 9, Cols: 9, CellSize: 1, Epsilon: 1}
	roads, err := ManhattanRoads(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(roads.Roads()) == 0 {
		t.Fatal("no roads")
	}
	pg := roads.Policy()
	if pg.NumEdges() == 0 {
		t.Error("road policy should have edges")
	}
	walk, err := roads.RandomWalk(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range walk {
		if !roads.IsRoad(c) {
			t.Fatal("walk left the roads")
		}
	}
	a, b := roads.Roads()[0], roads.Roads()[len(roads.Roads())-1]
	if d := roads.RoadDistance(a, b); d < 0 {
		t.Error("manhattan network should be connected")
	}
	if n := roads.NearestRoad(10); !roads.IsRoad(n) {
		t.Error("NearestRoad returned a building")
	}
	if _, err := ManhattanRoads(o, 1); err == nil {
		t.Error("bad spacing should error")
	}
}
