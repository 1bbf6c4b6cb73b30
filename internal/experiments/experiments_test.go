package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tb := &Table{ID: "T", Title: "test", Columns: []string{"a", "b"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("y", 2)
	if got, _ := tb.Cell(0, "a"); got != "x" {
		t.Errorf("Cell = %q", got)
	}
	if got, _ := tb.CellFloat(0, "b"); got != 1.5 {
		t.Errorf("CellFloat = %v", got)
	}
	if _, err := tb.Cell(0, "zz"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := tb.Cell(9, "a"); err == nil {
		t.Error("bad row should error")
	}
	rows := tb.FindRows("a", "y")
	if len(rows) != 1 || rows[0] != 1 {
		t.Errorf("FindRows = %v", rows)
	}
	var buf bytes.Buffer
	if err := tb.Print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== T: test ==") || !strings.Contains(out, "1.5") {
		t.Errorf("printed:\n%s", out)
	}
}

// TestConfigValidate checks that Validate refuses what the experiments
// cannot run: E10 and E11 divide by half of UtilitySamples and E5, E10
// and E11 run half of AdversaryRounds, so each budget must be at least
// 2, and the mechanisms take only a positive, finite ε.
func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) { *c = Default() }, true},
		{"quick", func(*Config) {}, true},
		{"smallest budgets", func(c *Config) { c.UtilitySamples, c.AdversaryRounds = 2, 2 }, true},
		{"no epsilons", func(c *Config) { c.Epsilons = nil }, false},
		{"zero epsilon", func(c *Config) { c.Epsilons = []float64{0} }, false},
		{"NaN epsilon", func(c *Config) { c.Epsilons = []float64{0.5, math.NaN()} }, false},
		{"+Inf epsilon", func(c *Config) { c.Epsilons = []float64{math.Inf(1)} }, false},
		{"-Inf epsilon", func(c *Config) { c.Epsilons = []float64{math.Inf(-1)} }, false},
		{"one utility sample", func(c *Config) { c.UtilitySamples = 1 }, false},
		{"one adversary round", func(c *Config) { c.AdversaryRounds = 1 }, false},
		{"zero grid", func(c *Config) { c.GridRows = 0 }, false},
	} {
		cfg := Quick()
		c.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSmallestBudgets runs the experiments that halve a budget at the
// smallest budgets Validate accepts: each must finish with finite
// numbers in every cell.
func TestSmallestBudgets(t *testing.T) {
	cfg := Quick()
	cfg.UtilitySamples, cfg.AdversaryRounds = 2, 2
	for name, run := range map[string]func(Config) (*Table, error){
		"E4": RunE4, "E5": RunE5, "E10": RunE10, "E11": RunE11,
	} {
		tb, err := run(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for ri := range tb.Rows {
			for _, col := range tb.Columns {
				if f, err := tb.CellFloat(ri, col); err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
					t.Errorf("%s row %d column %s = %v", name, ri, col, f)
				}
			}
		}
	}
}

func TestRunE1Shape(t *testing.T) {
	cfg := Quick()
	cfg.UtilitySamples = 100
	tb, err := RunE1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 policies × 6 mechanisms × 2 epsilons.
	if len(tb.Rows) != 4*6*2 {
		t.Fatalf("rows = %d, want 48", len(tb.Rows))
	}
	// Error decreases with ε for policy-aware mechanisms on G1.
	lo := tb.FindRows("policy", "G1", "mechanism", "gem", "eps", "0.5")
	hi := tb.FindRows("policy", "G1", "mechanism", "gem", "eps", "2")
	if len(lo) != 1 || len(hi) != 1 {
		t.Fatalf("missing rows: %v %v", lo, hi)
	}
	eLo, _ := tb.CellFloat(lo[0], "err")
	eHi, _ := tb.CellFloat(hi[0], "err")
	if eHi >= eLo {
		t.Errorf("G1/gem error should fall with ε: %v (ε=0.5) vs %v (ε=2)", eLo, eHi)
	}
	// All errors non-negative, p90 ≥ mean-ish sanity.
	for ri := range tb.Rows {
		e, _ := tb.CellFloat(ri, "err")
		if e < 0 {
			t.Fatalf("negative error at row %d", ri)
		}
	}
}

func TestRunE2Shape(t *testing.T) {
	cfg := Quick()
	tb, err := RunE2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 policies × 2 mechanisms × 2 epsilons.
	if len(tb.Rows) != 4*2*2 {
		t.Fatalf("rows = %d, want 16", len(tb.Rows))
	}
	r0, _ := tb.CellFloat(0, "r0_true")
	if r0 <= 0 {
		t.Errorf("r0_true = %v, want positive", r0)
	}
	for ri := range tb.Rows {
		ae, _ := tb.CellFloat(ri, "abs_err")
		if ae < 0 {
			t.Fatalf("negative abs_err at %d", ri)
		}
	}
}

func TestRunE3DynamicBeatsStatic(t *testing.T) {
	cfg := Quick()
	tb, err := RunE3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3*len(cfg.Epsilons) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The iterative campaign recovers its reachable contact closure
	// exactly (precision = recall = 1) within the round limit.
	for _, eps := range []string{"0.5", "2"} {
		iter := tb.FindRows("protocol", "iterative", "eps", eps)
		if len(iter) != 1 {
			t.Fatalf("missing iterative row for eps=%s", eps)
		}
		p, _ := tb.CellFloat(iter[0], "precision")
		r, _ := tb.CellFloat(iter[0], "recall")
		if p != 1 || r != 1 {
			t.Errorf("iterative closure recovery at eps=%s: p=%v r=%v, want 1/1", eps, p, r)
		}
		rounds, _ := tb.CellFloat(iter[0], "rounds")
		if rounds < 1 {
			t.Errorf("iterative rounds = %v", rounds)
		}
	}
	for _, eps := range []string{"0.5", "2"} {
		dyn := tb.FindRows("protocol", "dynamic", "eps", eps)
		stat := tb.FindRows("protocol", "static", "eps", eps)
		if len(dyn) != 1 || len(stat) != 1 {
			t.Fatalf("missing rows for eps=%s", eps)
		}
		fDyn, _ := tb.CellFloat(dyn[0], "f1")
		fStat, _ := tb.CellFloat(stat[0], "f1")
		if fDyn != 1 {
			t.Errorf("dynamic F1 at ε=%s is %v, want 1", eps, fDyn)
		}
		if fStat > fDyn {
			t.Errorf("static F1 %v exceeds dynamic %v at ε=%s", fStat, fDyn, eps)
		}
	}
}

func TestRunE4Shape(t *testing.T) {
	cfg := Quick()
	cfg.AdversaryRounds = 150
	tb, err := RunE4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4*3*2 {
		t.Fatalf("rows = %d, want 24", len(tb.Rows))
	}
	// Privacy falls (adv error falls) as ε rises, for GEM on G1.
	lo := tb.FindRows("policy", "G1", "mechanism", "gem", "eps", "0.5")
	hi := tb.FindRows("policy", "G1", "mechanism", "gem", "eps", "2")
	aLo, _ := tb.CellFloat(lo[0], "adv_err")
	aHi, _ := tb.CellFloat(hi[0], "adv_err")
	if aHi > aLo {
		t.Errorf("adversary error should not grow with ε: %v (0.5) vs %v (2)", aLo, aHi)
	}
}

func TestRunE5Shape(t *testing.T) {
	cfg := Quick()
	tb, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tb.Rows))
	}
	for ri := range tb.Rows {
		iso, _ := tb.CellFloat(ri, "isolated")
		size, _ := tb.CellFloat(ri, "size")
		if int(iso) < cfg.GridRows*cfg.GridCols-int(size) {
			t.Errorf("row %d: isolated %v below universe minus size %v", ri, iso, size)
		}
	}
}

func TestRunE6AllTheoremsHold(t *testing.T) {
	cfg := Quick()
	tb, err := RunE6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for ri := range tb.Rows {
		sat, _ := tb.Cell(ri, "satisfied")
		if sat != "true" {
			mech, _ := tb.Cell(ri, "mechanism")
			thm, _ := tb.Cell(ri, "theorem")
			ratio, _ := tb.Cell(ri, "max_ratio")
			t.Errorf("%s for %s violated (ratio %s)", thm, mech, ratio)
		}
	}
}

func TestRunE7Pipeline(t *testing.T) {
	cfg := Quick()
	cfg.Users = 10
	cfg.Steps = 8
	tb, err := RunE7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 stages", len(tb.Rows))
	}
	for ri := range tb.Rows {
		ops, _ := tb.CellFloat(ri, "ops")
		rate, _ := tb.CellFloat(ri, "ops_per_sec")
		if ops <= 0 || rate <= 0 {
			t.Errorf("row %d: ops=%v rate=%v", ri, ops, rate)
		}
	}
}

func TestRunE9TrackingBeatsSingleShot(t *testing.T) {
	cfg := Quick()
	cfg.Users = 20
	cfg.Steps = 16
	tb, err := RunE9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3*len(cfg.Epsilons) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, eps := range []string{"0.5", "2"} {
		track := tb.FindRows("defender", "static", "eps", eps)
		single := tb.FindRows("defender", "static-singleshot", "eps", eps)
		dyn := tb.FindRows("defender", "dynamic", "eps", eps)
		if len(track) != 1 || len(single) != 1 || len(dyn) != 1 {
			t.Fatalf("missing rows at eps=%s", eps)
		}
		eTrack, _ := tb.CellFloat(track[0], "adv_err")
		eDyn, _ := tb.CellFloat(dyn[0], "adv_err")
		if eTrack < 0 || eDyn < 0 {
			t.Fatal("negative adversary error")
		}
		// The dynamic δ-set diagnostics must be meaningful.
		dsize, _ := tb.CellFloat(dyn[0], "mean_delta_set")
		if dsize <= 0 || dsize > float64(cfg.GridRows*cfg.GridCols) {
			t.Errorf("mean delta set %v out of range", dsize)
		}
	}
}

func TestRunE10DatasetSensitivity(t *testing.T) {
	cfg := Quick()
	tb, err := RunE10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 3 policies × 2 epsilons.
	if len(tb.Rows) != 2*3*2 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	// The check-in workload has a sharper prior (lower entropy).
	geoRows := tb.FindRows("dataset", "geolife-like")
	gowRows := tb.FindRows("dataset", "gowalla-like")
	he, _ := tb.CellFloat(geoRows[0], "prior_entropy")
	hg, _ := tb.CellFloat(gowRows[0], "prior_entropy")
	if hg >= he {
		t.Errorf("gowalla prior entropy %v should be below geolife %v", hg, he)
	}
}

func TestRunE11GGIDominatesOnRoads(t *testing.T) {
	cfg := Quick()
	tb, err := RunE11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2*len(cfg.Epsilons) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, eps := range []string{"0.5", "2"} {
		ggi := tb.FindRows("mechanism", "ggi", "eps", eps)
		geoi := tb.FindRows("mechanism", "geo-i", "eps", eps)
		if len(ggi) != 1 || len(geoi) != 1 {
			t.Fatalf("missing rows at eps=%s", eps)
		}
		offGGI, _ := tb.CellFloat(ggi[0], "offroad_frac")
		if offGGI != 0 {
			t.Errorf("GGI released off-road at eps=%s: %v", eps, offGGI)
		}
		offGeoI, _ := tb.CellFloat(geoi[0], "offroad_frac")
		if offGeoI == 0 {
			t.Errorf("Geo-I should land off-road sometimes at eps=%s", eps)
		}
	}
	// Frontier check: no Geo-I configuration may dominate a GGI one
	// (strictly more empirical privacy AND strictly less road error).
	ggiRows := tb.FindRows("mechanism", "ggi")
	geoiRows := tb.FindRows("mechanism", "geo-i")
	for _, gr := range ggiRows {
		aG, _ := tb.CellFloat(gr, "adv_err")
		rG, _ := tb.CellFloat(gr, "road_err_hops")
		for _, br := range geoiRows {
			aB, _ := tb.CellFloat(br, "adv_err")
			rB, _ := tb.CellFloat(br, "road_err_hops")
			if aB > aG*1.05 && rB < rG*0.95 {
				t.Errorf("Geo-I point (adv %v, road %v) dominates GGI (adv %v, road %v)",
					aB, rB, aG, rG)
			}
		}
	}
}

func TestRunE8NoViolations(t *testing.T) {
	cfg := Quick()
	tb, err := RunE8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3*5 {
		t.Fatalf("rows = %d, want 15", len(tb.Rows))
	}
	for ri := range tb.Rows {
		u, _ := tb.CellFloat(ri, "utilisation")
		if u > 1+1e-6 {
			mech, _ := tb.Cell(ri, "mechanism")
			hops, _ := tb.Cell(ri, "hops")
			t.Errorf("%s at %s hops: utilisation %v > 1 (privacy violation)", mech, hops, u)
		}
	}
}
