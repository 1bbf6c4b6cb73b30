package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
)

func TestDatasetValidate(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	good := &Dataset{Grid: grid, Steps: 2, Trajs: []Trajectory{
		{User: 0, Cells: []int{0, 1}},
		{User: 1, Cells: []int{4, 4}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []*Dataset{
		{Grid: nil, Steps: 2},
		{Grid: grid, Steps: 0},
		{Grid: grid, Steps: 2, Trajs: []Trajectory{{User: 0, Cells: []int{0}}}},
		{Grid: grid, Steps: 1, Trajs: []Trajectory{{User: 0, Cells: []int{99}}}},
		{Grid: grid, Steps: 1, Trajs: []Trajectory{{User: 0, Cells: []int{0}}, {User: 0, Cells: []int{1}}}},
	}
	for i, ds := range cases {
		if err := ds.Validate(); err == nil {
			t.Errorf("case %d: invalid dataset accepted", i)
		}
	}
}

func TestDatasetAccessors(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	ds := &Dataset{Grid: grid, Steps: 3, Trajs: []Trajectory{
		{User: 7, Cells: []int{0, 1, 2}},
		{User: 9, Cells: []int{3, 3, 3}},
	}}
	if ds.NumUsers() != 2 {
		t.Error("NumUsers wrong")
	}
	if tr := ds.ByUser(9); tr == nil || tr.Cells[0] != 3 {
		t.Error("ByUser wrong")
	}
	if ds.ByUser(42) != nil {
		t.Error("missing user should be nil")
	}
	if len(ds.Sequences()) != 2 {
		t.Error("Sequences wrong")
	}
	dist := ds.VisitDistribution()
	var sum float64
	for _, v := range dist {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("visit distribution sums to %v", sum)
	}
	if math.Abs(dist[3]-0.5) > 1e-12 {
		t.Errorf("dist[3] = %v, want 0.5", dist[3])
	}
}

func TestDatasetClone(t *testing.T) {
	grid := geo.MustGrid(2, 2, 1)
	ds := &Dataset{Grid: grid, Steps: 1, Trajs: []Trajectory{{User: 0, Cells: []int{1}}}}
	c := ds.Clone()
	c.Trajs[0].Cells[0] = 3
	if ds.Trajs[0].Cells[0] != 1 {
		t.Error("clone shares cell storage")
	}
}

// TestDatasetPerturb: each cell becomes the snap of its release, made
// in time order from trajectory i's stream dp.Derive(seed, i+1); the
// input is untouched, and a failed release aborts naming user and step.
func TestDatasetPerturb(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	ds := &Dataset{Grid: grid, Steps: 3, Trajs: []Trajectory{
		{User: 4, Cells: []int{0, 1, 2}}, {User: 7, Cells: []int{8, 8, 5}},
	}}
	// A release that jitters the cell center by a draw from rng, so the
	// result depends on the stream and its order.
	jitter := func(rng *rand.Rand, cell int) (geo.Point, error) {
		if cell == 5 {
			return geo.Point{}, errors.New("cell 5 refused")
		}
		return grid.Center(cell).Add(geo.Pt(rng.Float64()*2-1, 0)), nil
	}
	out, err := ds.Perturb(jitter, 11)
	if err == nil || !strings.Contains(err.Error(), "user 7 step 2") {
		t.Fatalf("Perturb error = %v, want one naming user 7 step 2", err)
	}
	if out != nil {
		t.Error("Perturb returned a dataset with its error")
	}
	ds.Trajs[1].Cells[2] = 8
	out, err = ds.Perturb(jitter, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range ds.Trajs {
		rng := dp.Derive(11, uint64(i)+1)
		for step, c := range tr.Cells {
			z, _ := jitter(rng, c)
			if got := out.Trajs[i].Cells[step]; got != grid.Snap(z) {
				t.Errorf("user %d step %d: cell %d, want %d", tr.User, step, got, grid.Snap(z))
			}
		}
	}
	if ds.Trajs[0].Cells[1] != 1 || ds.Trajs[1].Cells[0] != 8 {
		t.Error("Perturb changed its input")
	}
}

func TestGenerateGeoLife(t *testing.T) {
	grid := geo.MustGrid(10, 10, 1)
	cfg := GeoLifeConfig{Users: 20, Steps: 50, Seed: 3, Speed: 2, PauseProb: 0.3, HomeBias: 0.5}
	ds, err := GenerateGeoLife(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers() != 20 || ds.Steps != 50 {
		t.Fatalf("shape %d users x %d steps", ds.NumUsers(), ds.Steps)
	}
	// Movement continuity: consecutive cells within Chebyshev distance Speed.
	for _, tr := range ds.Trajs {
		for t1 := 0; t1+1 < len(tr.Cells); t1++ {
			a, b := grid.CellOf(tr.Cells[t1]), grid.CellOf(tr.Cells[t1+1])
			dr, dc := abs(a.Row-b.Row), abs(a.Col-b.Col)
			if dr > cfg.Speed || dc > cfg.Speed {
				t.Fatalf("user %d jumps %d,%d cells in one step", tr.User, dr, dc)
			}
		}
	}
}

func TestGenerateGeoLifeDeterminism(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	cfg := DefaultGeoLife()
	cfg.Users, cfg.Steps = 5, 20
	a, _ := GenerateGeoLife(grid, cfg)
	b, _ := GenerateGeoLife(grid, cfg)
	for i := range a.Trajs {
		for t1 := range a.Trajs[i].Cells {
			if a.Trajs[i].Cells[t1] != b.Trajs[i].Cells[t1] {
				t.Fatal("same seed should reproduce identical traces")
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c, _ := GenerateGeoLife(grid, cfg2)
	same := true
	for i := range a.Trajs {
		for t1 := range a.Trajs[i].Cells {
			if a.Trajs[i].Cells[t1] != c.Trajs[i].Cells[t1] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateGeoLifeValidation(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	bad := []GeoLifeConfig{
		{Users: 0, Steps: 10, Speed: 1},
		{Users: 1, Steps: 0, Speed: 1},
		{Users: 1, Steps: 1, Speed: 0},
		{Users: 1, Steps: 1, Speed: 1, PauseProb: 1.5},
		{Users: 1, Steps: 1, Speed: 1, HomeBias: -0.1},
	}
	for i, cfg := range bad {
		if _, err := GenerateGeoLife(grid, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestGenerateGowalla(t *testing.T) {
	grid := geo.MustGrid(10, 10, 1)
	cfg := GowallaConfig{Users: 30, Steps: 40, Venues: 25, ZipfS: 1.0, Favorites: 4, RevisitProb: 0.7, Seed: 5}
	ds, err := GenerateGowalla(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Check-ins restricted to the venue set.
	venues := map[int]bool{}
	for _, tr := range ds.Trajs {
		for _, c := range tr.Cells {
			venues[c] = true
		}
	}
	if len(venues) > cfg.Venues {
		t.Errorf("%d distinct cells used, want ≤ %d venues", len(venues), cfg.Venues)
	}
	// Popularity skew: the most-visited venue should clearly dominate the
	// median (Zipf shape).
	dist := ds.VisitDistribution()
	var max float64
	var nonzero []float64
	for _, v := range dist {
		if v > 0 {
			nonzero = append(nonzero, v)
		}
		if v > max {
			max = v
		}
	}
	if max < 2.0/float64(len(nonzero)) {
		t.Errorf("no popularity skew: max share %v across %d venues", max, len(nonzero))
	}
}

func TestGenerateGowallaValidation(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	ok := GowallaConfig{Users: 2, Steps: 3, Venues: 8, ZipfS: 1, Favorites: 2, RevisitProb: 0.5}
	if _, err := GenerateGowalla(grid, ok); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []GowallaConfig{
		{Users: 0, Steps: 3, Venues: 8, ZipfS: 1, Favorites: 2},
		{Users: 2, Steps: 3, Venues: 0, ZipfS: 1, Favorites: 2},
		{Users: 2, Steps: 3, Venues: 99, ZipfS: 1, Favorites: 2},
		{Users: 2, Steps: 3, Venues: 8, ZipfS: 0, Favorites: 2},
		{Users: 2, Steps: 3, Venues: 8, ZipfS: 1, Favorites: 0},
		{Users: 2, Steps: 3, Venues: 8, ZipfS: 1, Favorites: 9},
		{Users: 2, Steps: 3, Venues: 8, ZipfS: 1, Favorites: 2, RevisitProb: 2},
	}
	for i, cfg := range bad {
		if _, err := GenerateGowalla(grid, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	grid := geo.MustGrid(6, 6, 1)
	ds, err := GenerateGeoLife(grid, GeoLifeConfig{Users: 7, Steps: 9, Seed: 8, Speed: 1, PauseProb: 0.2, HomeBias: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, grid)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUsers() != ds.NumUsers() || back.Steps != ds.Steps {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range ds.Trajs {
		for t1 := range ds.Trajs[i].Cells {
			if ds.Trajs[i].Cells[t1] != back.Trajs[i].Cells[t1] {
				t.Fatal("cells mismatch after round trip")
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	cases := []string{
		"",                                   // no header
		"a,b,c,d\n0,0,0,0\n",                 // bad header
		"user,t,row,col\n0,0,9,9\n",          // out of grid
		"user,t,row,col\n0,-1,0,0\n",         // negative t
		"user,t,row,col\n0,0,0,0\n0,0,1,1\n", // duplicate
		"user,t,row,col\n0,0,0,0\n0,2,1,1\n", // gap at t=1
		"user,t,row,col\nx,0,0,0\n",          // non-integer
		"user,t,row,col\n",                   // empty body
		"user,t,row,col\n0,0,0,0\n1,1,0,0\n", // user 1 missing t=0
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s), grid); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
