package panda

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func testOptions() Options {
	return Options{Rows: 8, Cols: 8, CellSize: 1, Epsilon: 1}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{}); err == nil {
		t.Error("empty options should error")
	}
	if _, err := NewSystem(Options{Rows: 4, Cols: 4, CellSize: 1, Epsilon: 0}); err == nil {
		t.Error("zero epsilon should error")
	}
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumCells() != 64 {
		t.Errorf("NumCells = %d", sys.NumCells())
	}
}

func TestUserReportAndMonitoring(t *testing.T) {
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sys.NewUser(1, GEM, 7)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 5; ti++ {
		r, err := alice.Report(ti, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !geoValid(sys, r) {
			t.Fatalf("release %+v invalid", r)
		}
	}
	recs := sys.Records(1)
	if len(recs) != 5 {
		t.Errorf("records = %d", len(recs))
	}
	density := sys.DensityAt(0, 4, 4)
	total := 0
	for _, c := range density {
		total += c
	}
	if total != 1 {
		t.Errorf("density total = %d, want 1", total)
	}
}

func geoValid(sys *System, r Release) bool {
	return r.Cell >= 0 && r.Cell < sys.NumCells() && sys.SnapToCell(r.Point) == r.Cell
}

func TestAllMechanismKinds(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	for i, kind := range []MechanismKind{GEM, GEME, GLM, PIM, KNorm, GeoInd} {
		u, err := sys.NewUser(10+i, kind, uint64(i))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := u.Report(0, 3); err != nil {
			t.Fatalf("%s report: %v", kind, err)
		}
	}
	if _, err := sys.NewUser(99, MechanismKind("bogus"), 1); err == nil {
		t.Error("unknown mechanism should error")
	}
}

func TestInfectionUpdateTriggersPolicyRefresh(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	bob, err := sys.NewUser(2, GEM, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bob.PolicyVersion() != 1 {
		t.Fatalf("initial version = %d", bob.PolicyVersion())
	}
	changed := sys.MarkInfected([]int{20, 21})
	found := false
	for _, u := range changed {
		if u == 2 {
			found = true
		}
	}
	if !found {
		t.Error("bob's policy should have changed")
	}
	// The next report moves bob to the mechanism of Gc; a visit to an
	// infected cell is disclosed exactly.
	r, err := bob.Report(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if bob.PolicyVersion() != 2 {
		t.Errorf("version after refresh = %d", bob.PolicyVersion())
	}
	if r.Point != sys.CellCenter(20) || r.Cell != 20 {
		t.Errorf("infected visit should be exact: %+v", r)
	}
	// Health code turns red after two infected visits.
	if _, err := bob.Report(1, 21); err != nil {
		t.Fatal(err)
	}
	if code := sys.HealthCodeFor(2, 0, -1); code != CodeRed {
		t.Errorf("health code = %v, want red", code)
	}
	if got := sys.InfectedCells(); len(got) != 2 {
		t.Errorf("InfectedCells = %v", got)
	}
}

// TestUsersShareMechanism: users holding one policy release through
// one mechanism per kind, and after a mark each user's next report
// moves it to the one mechanism of the new graph. Users are created
// and report from several goroutines while a mark lands.
func TestUsersShareMechanism(t *testing.T) {
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	newUser := func(id int, kind MechanismKind) *User {
		t.Helper()
		u, err := sys.NewUser(id, kind, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	a, b, c := newUser(1, GEM), newUser(2, GEM), newUser(3, GLM)
	if a.mech != b.mech {
		t.Error("two GEM users on one policy hold different mechanisms")
	}
	if c.mech == a.mech {
		t.Error("a GLM user holds the GEM mechanism")
	}
	oldGEM, oldGLM := a.mech, c.mech

	sys.MarkInfected([]int{5})
	for i, u := range []*User{a, c} {
		if _, err := u.Report(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if a.mech == oldGEM || c.mech == oldGLM {
		t.Fatal("a report after the mark kept the mechanism of the old graph")
	}
	if b.mech != oldGEM {
		t.Error("a user moved to the new mechanism before its next report")
	}
	if _, err := b.Report(0, 2); err != nil {
		t.Fatal(err)
	}
	if b.mech != a.mech {
		t.Error("GEM users on the new graph hold different mechanisms")
	}

	// After this mark the first goroutine of each kind builds the new
	// graph's mechanism while the others look it up; a second mark lands
	// while they report.
	sys.MarkInfected([]int{40})
	kinds := []MechanismKind{GEM, GLM}
	users := make([]*User, 16)
	var wg sync.WaitGroup
	for i := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := sys.NewUser(100+i, kinds[i%2], uint64(i))
			if err != nil {
				t.Error(err)
				return
			}
			for step := 0; step < 4; step++ {
				if _, err := u.Report(step, (i+step)%64); err != nil {
					t.Error(err)
					return
				}
			}
			users[i] = u
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sys.MarkInfected([]int{41})
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// One more report each puts every user on the latest graph.
	want := map[MechanismKind]*User{GEM: a, GLM: c}
	for _, u := range append(users, a, c) {
		if _, err := u.Report(10, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range users {
		if u.mech != want[u.kind].mech {
			t.Errorf("user %d (%s) does not share its kind's mechanism", 100+i, u.kind)
		}
	}
	if a.mech == c.mech {
		t.Error("GEM and GLM users share a mechanism")
	}
}

func TestReportHistory(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(5, GLM, 9)
	rels, err := u.ReportHistory(10, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 || rels[0].T != 10 || rels[2].T != 12 {
		t.Errorf("history releases = %+v", rels)
	}
	if len(sys.Records(5)) != 3 {
		t.Error("history not stored")
	}
}

func TestReportBatchShardedSystem(t *testing.T) {
	opts := testOptions()
	opts.StoreShards = 8
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(3, GEM, 11)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]int, 20)
	for i := range cells {
		cells[i] = i % sys.NumCells()
	}
	rels, err := u.ReportBatch(0, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 20 {
		t.Fatalf("releases = %d, want 20", len(rels))
	}
	recs := sys.Records(3)
	if len(recs) != 20 {
		t.Fatalf("stored = %d, want 20", len(recs))
	}
	for i, rec := range recs {
		if rec.T != i {
			t.Fatalf("record %d has T=%d, want time order", i, rec.T)
		}
	}
	// Bad input is rejected before any budget is spent or data stored.
	if _, err := u.ReportBatch(-1, []int{0}); err == nil {
		t.Error("negative fromT should error")
	}
	if _, err := u.ReportBatch(30, []int{sys.NumCells()}); err == nil {
		t.Error("out-of-range cell should error")
	}
	if len(sys.Records(3)) != 20 {
		t.Error("rejected batches must store nothing")
	}
	// A policy update mid-stream is picked up by the next batch.
	sys.MarkInfected([]int{cells[0]})
	if _, err := u.ReportBatch(20, cells[:5]); err != nil {
		t.Fatal(err)
	}
	if u.PolicyVersion() != sys.PolicyVersion(3) {
		t.Errorf("batch did not refresh policy: user=%d system=%d",
			u.PolicyVersion(), sys.PolicyVersion(3))
	}
}

func TestMovementMatrixFacade(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(1, GEM, 1)
	_, _ = u.Report(0, 0)
	_, _ = u.Report(1, 63)
	flows := sys.MovementMatrix(0, 1, 4, 4)
	total := 0
	for _, row := range flows {
		for _, v := range row {
			total += v
		}
	}
	if total != 1 {
		t.Errorf("total flows = %d, want 1", total)
	}
}

// TestBlockSizeFacade: region queries with a block side below one cell
// return nil or an error instead of panicking, and a block side near
// math.MaxInt is one region across.
func TestBlockSizeFacade(t *testing.T) {
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(1, GEM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReportBatch(0, []int{0, 63}); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2]int{{0, 4}, {0, 0}, {-1, -1}, {-2, 3}, {0, 2}} {
		if got := sys.DensityAt(0, b[0], b[1]); got != nil {
			t.Errorf("DensityAt(0, %d, %d) = %v, want nil", b[0], b[1], got)
		}
		if got := sys.MovementMatrix(0, 1, b[0], b[1]); got != nil {
			t.Errorf("MovementMatrix(0, 1, %d, %d) = %v, want nil", b[0], b[1], got)
		}
		if _, err := sys.DensitySeries(0, 1, b[0], b[1]); err == nil {
			t.Errorf("DensitySeries(0, 1, %d, %d) should error", b[0], b[1])
		}
	}
	if got := sys.DensityAt(0, math.MaxInt, 1); len(got) != 8 {
		t.Errorf("DensityAt(0, MaxInt, 1) = %v, want one row of 8 regions", got)
	}
}

func TestPolicyConstructors(t *testing.T) {
	o := testOptions()
	base, err := BaselinePolicy(o)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumEdges() == 0 {
		t.Error("baseline should have edges")
	}
	mon, err := MonitoringPolicy(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mon.NumEdges() == 0 {
		t.Error("monitoring policy should have edges")
	}
	if _, err := MonitoringPolicy(o, 0); err == nil {
		t.Error("zero block should error")
	}
	gc := ContactTracingPolicy(base, []int{5})
	iso := gc.IsolatedCells()
	foundFive := false
	for _, c := range iso {
		if c == 5 {
			foundFive = true
		}
	}
	if !foundFive {
		t.Error("cell 5 should be isolated in Gc")
	}
	custom, err := CustomPolicy(o, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if custom.NumEdges() != 2 {
		t.Errorf("custom edges = %d", custom.NumEdges())
	}
	if _, err := CustomPolicy(o, [][2]int{{0, 99}}); err == nil {
		t.Error("bad edge should error")
	}
	// System with a custom default policy.
	o2 := o
	o2.PolicyGraph = mon
	if _, err := NewSystem(o2); err != nil {
		t.Errorf("system with custom policy: %v", err)
	}
}

func TestAuditPrivacy(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(1, GEM, 2)
	e, err := u.AuditPrivacy(200)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Errorf("adversary error = %v, want positive under ε=1", e)
	}
}

func TestWindowBudgetEnforced(t *testing.T) {
	o := testOptions()
	o.WindowSteps = 3
	o.WindowEpsilon = 2 // ε=1 per release → 2 releases per 3-step window
	sys, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(1, GEM, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(2, 3); err == nil {
		t.Error("third release in window should exhaust budget")
	}
	// The window slides: t=3 drops the spend at t=0.
	if _, err := u.Report(3, 3); err != nil {
		t.Errorf("release after window slide failed: %v", err)
	}
	// Mismatched window options rejected.
	bad := testOptions()
	bad.WindowSteps = 5
	if _, err := NewSystem(bad); err == nil {
		t.Error("WindowSteps without WindowEpsilon should error")
	}
}

// TestWindowOptionsValidation: only (0, 0) turns the window budget
// off. A zero on one side alone is refused as a half-set pair, and any
// other pair must pass the window accountant's own checks.
func TestWindowOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		steps   int
		eps     float64
		wantErr string // "" for a system that builds
	}{
		{0, 0, ""},
		{3, 2, ""},
		{3, math.Inf(1), ""},
		{5, 0, "panda: WindowSteps and WindowEpsilon must be set together"},
		{0, 2, "panda: WindowSteps and WindowEpsilon must be set together"},
		{0, math.NaN(), "panda: WindowSteps and WindowEpsilon must be set together"},
		{5, math.NaN(), "panda: dp: window limit must be positive, got NaN"},
		{5, -1, "panda: dp: window limit must be positive, got -1"},
		{-3, 2, "panda: dp: window must be positive, got -3"},
	} {
		o := testOptions()
		o.WindowSteps, o.WindowEpsilon = tc.steps, tc.eps
		got := ""
		if _, err := NewSystem(o); err != nil {
			got = err.Error()
		}
		if got != tc.wantErr {
			t.Errorf("WindowSteps %d, WindowEpsilon %v: error %q, want %q", tc.steps, tc.eps, got, tc.wantErr)
		}
	}
}

// TestWindowBudgetOutOfOrder: a release at an earlier step counts
// against the windows that later releases already hold, so reporting
// late cannot get around the sliding-window budget.
func TestWindowBudgetOutOfOrder(t *testing.T) {
	o := testOptions()
	o.WindowSteps = 10
	o.WindowEpsilon = 1 // ε=1 per release → one release per window
	sys, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(1, GEM, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(14, 3); err != nil {
		t.Fatal(err)
	}
	// Steps (4, 14] would hold both releases.
	if _, err := u.Report(5, 3); err == nil {
		t.Error("a release at t=5 after one at t=14 fit a 10-step window of 1ε")
	}
	if _, err := u.Report(4, 3); err != nil {
		t.Errorf("t=4 shares no 10-step window with t=14: %v", err)
	}
	if got := sys.Records(1); len(got) != 2 {
		t.Errorf("stored %d records, want 2", len(got))
	}
}

// TestRefusedBatchSpendsNoBudget: a batch that would overdraw a window
// is refused whole, before any of its steps is charged, so the budget
// is still there for the next release.
func TestRefusedBatchSpendsNoBudget(t *testing.T) {
	o := testOptions()
	o.WindowSteps = 10
	o.WindowEpsilon = 2 // ε=1 per release → two releases per window
	sys, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(1, GEM, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReportBatch(0, []int{1, 2, 3}); err == nil {
		t.Fatal("three releases fit a window of 2ε")
	}
	if got := sys.Records(1); len(got) != 0 {
		t.Fatalf("refused batch stored %v", got)
	}
	if _, err := u.ReportBatch(5, []int{1, 2}); err != nil {
		t.Errorf("the refused batch kept some of its charges: %v", err)
	}
}

// TestBatchPastMaxIntSpendsNoBudget: a batch whose timesteps would pass
// math.MaxInt is refused before the window budget is charged, so it
// neither stores a record nor blocks a later release at math.MaxInt.
func TestBatchPastMaxIntSpendsNoBudget(t *testing.T) {
	o := testOptions()
	o.WindowSteps = 10
	o.WindowEpsilon = 1 // ε=1 per release → one release per window
	sys, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(1, GEM, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReportBatch(math.MaxInt, []int{1, 2}); err == nil {
		t.Fatal("a batch from math.MaxInt over two steps should error")
	}
	if got := sys.Records(1); len(got) != 0 {
		t.Fatalf("refused batch stored %v", got)
	}
	if _, err := u.Report(math.MaxInt, 1); err != nil {
		t.Fatalf("Report(math.MaxInt) after the refused batch: %v", err)
	}
	if got := sys.Records(1); len(got) != 1 || got[0].T != math.MaxInt {
		t.Errorf("records = %v, want one at math.MaxInt", got)
	}
}

func TestVerifyMechanismFacade(t *testing.T) {
	o := testOptions()
	base, err := BaselinePolicy(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []MechanismKind{GEM, GEME, GLM, PIM} {
		ok, ratio, err := VerifyMechanism(o, base, 1, kind, 10, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !ok {
			t.Errorf("%s violates its own policy (ratio %v)", kind, ratio)
		}
		if ratio <= 0 || ratio > 1+1e-6 {
			t.Errorf("%s normalized ratio = %v", kind, ratio)
		}
	}
	// A mechanism audited against a tighter policy than it was built for
	// must fail. Build a custom single-edge policy between distant cells:
	// the grid-calibrated mechanisms cannot hide a 60-cell gap at ε=0.5.
	far, err := CustomPolicy(o, [][2]int{{0, 63}})
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := VerifyMechanism(o, far, 0.5, GeoInd, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Geo-I baseline should fail a long-range policy edge")
	}
	if _, _, err := VerifyMechanism(o, base, 0, GEM, 10, 1); err == nil {
		t.Error("zero eps should error")
	}
}

func TestSystemAnalyticsFacade(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(1, GEM, 3)
	if _, err := u.Report(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(1, 10); err != nil {
		t.Fatal(err)
	}
	series, err := sys.DensitySeries(0, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series length = %d", len(series))
	}
	total := 0
	for _, counts := range series {
		for _, c := range counts {
			total += c
		}
	}
	if total != 2 {
		t.Errorf("series total = %d, want 2", total)
	}
	sys.MarkInfected([]int{10, 11})
	if _, err := u.Report(2, 10); err != nil { // exact disclosure under Gc
		t.Fatal(err)
	}
	exposure, err := sys.ExposureSeries(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if exposure[0] != 1 {
		t.Errorf("exposure = %v", exposure)
	}
	census := sys.HealthCodeCensus(0, -1)
	n := census[CodeGreen] + census[CodeYellow] + census[CodeRed]
	if n != 1 {
		t.Errorf("census covers %d users, want 1", n)
	}
	if _, err := sys.DensitySeries(2, 0, 4, 4); err == nil {
		t.Error("inverted range should error")
	}
}

// TestSeriesSpanLimitFacade: both series refuse a range wider than
// analytics.MaxSeriesSpan with an error instead of allocating it.
func TestSeriesSpanLimitFacade(t *testing.T) {
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DensitySeries(0, math.MaxInt, 2, 2); err == nil {
		t.Error("DensitySeries(0, math.MaxInt) should error")
	}
	if _, err := sys.ExposureSeries(0, math.MaxInt); err == nil {
		t.Error("ExposureSeries(0, math.MaxInt) should error")
	}
}

func TestHTTPHandlerFacade(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v2/policy?user=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy endpoint status %d", resp.StatusCode)
	}
	var body struct {
		Epsilon float64 `json:"epsilon"`
		Version int     `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Epsilon != 1 || body.Version != 1 {
		t.Errorf("policy body = %+v", body)
	}
}
