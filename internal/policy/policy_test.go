package policy

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func TestRecommenders(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	ga := ForMonitoring(grid, 4, 4)
	gb := ForMonitoring(grid, 2, 2)
	if len(ga.Components()) != 4 {
		t.Errorf("Ga components = %d, want 4", len(ga.Components()))
	}
	if len(gb.Components()) != 16 {
		t.Errorf("Gb components = %d, want 16", len(gb.Components()))
	}
	// Gb is finer: more, smaller components.
	gc := ForContactTracing(gb, []int{0, 1})
	if gc.Degree(0) != 0 || gc.Degree(1) != 0 {
		t.Error("infected cells should be isolated in Gc")
	}
	g1 := Baseline(grid)
	if !g1.IsConnected() {
		t.Error("baseline G1 should be connected")
	}
}

func TestManagerValidation(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := Baseline(grid)
	if _, err := NewManager(nil, g, 1); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := NewManager(grid, nil, 1); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := NewManager(grid, policygraph.New(5), 1); err == nil {
		t.Error("mismatched graph should error")
	}
	if _, err := NewManager(grid, g, 0); err == nil {
		t.Error("zero eps should error")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewManager(grid, g, eps); err == nil {
			t.Errorf("NewManager accepted eps %v", eps)
		}
	}
}

func TestManagerDefaultAssignment(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := Baseline(grid)
	m, err := NewManager(grid, g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	up := m.Get(7)
	if up.Epsilon != 0.8 || up.Version != 1 {
		t.Errorf("default policy = %+v", up)
	}
	if !up.Graph.Equal(g) {
		t.Error("default graph should be the baseline")
	}
	if m.Version(7) != 1 {
		t.Errorf("Version(7) = %d", m.Version(7))
	}
	if m.Version(99) != 0 {
		t.Errorf("unknown user version = %d, want 0", m.Version(99))
	}
	if users := m.Users(); len(users) != 1 || users[0] != 7 {
		t.Errorf("Users = %v", users)
	}
}

func TestManagerMarkInfected(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m, _ := NewManager(grid, Baseline(grid), 1)
	// Two users exist.
	m.Get(0)
	m.Get(1)
	if !m.MarkInfected([]int{4}) {
		t.Fatal("first mark of cell 4 was not effective")
	}
	changed := m.Users()
	if len(changed) != 2 {
		t.Fatalf("Users = %v, want both users", changed)
	}
	for _, u := range changed {
		up := m.Get(u)
		if up.Version != 2 {
			t.Errorf("user %d version = %d, want 2", u, up.Version)
		}
		if up.Graph.Degree(4) != 0 {
			t.Error("infected cell not isolated in updated policy")
		}
	}
	// New users get the infected-aware default.
	up := m.Get(5)
	if up.Graph.Degree(4) != 0 {
		t.Error("late joiner should get infected-aware default")
	}
	// Re-marking the same cell is a no-op.
	if m.MarkInfected([]int{4}) {
		t.Error("re-marking cell 4 was effective")
	}
	// Accumulation.
	m.MarkInfected([]int{0})
	inf := m.InfectedCells()
	if len(inf) != 2 || inf[0] != 0 || inf[1] != 4 {
		t.Errorf("InfectedCells = %v", inf)
	}
	// Out-of-range cells ignored.
	if m.MarkInfected([]int{-1, 100}) {
		t.Error("marking only out-of-range cells was effective")
	}
}

// TestManagerVersionRules pins the version contract the 409
// renegotiation relies on: the version is the number of effective marks
// plus one, the same for every user, so it names one graph whenever a
// user was first seen. Each row checks which graph and ε the users end
// up with, and that the stored encoding decodes to that graph.
func TestManagerVersionRules(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	base := Baseline(grid)
	isolated := func(cells ...int) *policygraph.Graph { return policygraph.IsolateNodes(base, cells) }
	type want struct {
		user    int
		version int
		graph   *policygraph.Graph
	}
	tests := []struct {
		name string
		run  func(t *testing.T, m *Manager)
		want []want
	}{
		{
			name: "first Get assigns the default at v1",
			run:  func(t *testing.T, m *Manager) {},
			want: []want{{1, 1, base}},
		},
		{
			name: "user first seen after k marks starts at version k+1 with every mark isolated",
			run: func(t *testing.T, m *Manager) {
				for _, c := range []int{0, 4, 8} {
					if !m.MarkInfected([]int{c}) {
						t.Errorf("MarkInfected(%d) with no users was not effective", c)
					}
					if got := m.Users(); len(got) != 0 {
						t.Errorf("MarkInfected(%d) with no users left users %v", c, got)
					}
				}
			},
			want: []want{{5, 4, isolated(0, 4, 8)}},
		},
		{
			name: "MarkInfected bumps every known user and moves them to the marked graph",
			run: func(t *testing.T, m *Manager) {
				m.Get(1)
				m.Get(2)
				m.MarkInfected([]int{0})
				if !m.MarkInfected([]int{4}) {
					t.Error("MarkInfected(4) was not effective")
				}
				if got := m.Users(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
					t.Errorf("Users = %v, want [1 2]", got)
				}
			},
			want: []want{{1, 3, isolated(0, 4)}, {2, 3, isolated(0, 4)}},
		},
		{
			name: "re-marking a cell changes nothing",
			run: func(t *testing.T, m *Manager) {
				m.Get(1)
				m.MarkInfected([]int{4})
				if m.MarkInfected([]int{4}) {
					t.Error("re-mark was effective")
				}
			},
			want: []want{{1, 2, isolated(4)}},
		},
		{
			name: "marking only out-of-range cells changes nothing",
			run: func(t *testing.T, m *Manager) {
				m.Get(1)
				if m.MarkInfected([]int{-1, 9}) {
					t.Error("out-of-range mark was effective")
				}
			},
			want: []want{{1, 1, base}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewManager(grid, base, 2)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, m)
			for _, w := range tc.want {
				up := m.Get(w.user)
				if up.Version != w.version || m.Version(w.user) != w.version {
					t.Errorf("user %d: version %d (Version() %d), want %d", w.user, up.Version, m.Version(w.user), w.version)
				}
				if !up.Graph.Equal(w.graph) {
					t.Errorf("user %d: graph %v, want %v", w.user, up.Graph, w.graph)
				}
				if up.Epsilon != 2 {
					t.Errorf("user %d: ε=%v, want the manager's 2", w.user, up.Epsilon)
				}
				if err := checkEncoding(up); err != nil {
					t.Errorf("user %d: %v", w.user, err)
				}
			}
		})
	}
}

// checkEncoding reports whether up's stored encoding decodes to its graph.
func checkEncoding(up UserPolicy) error {
	var g policygraph.Graph
	if err := json.Unmarshal(up.GraphJSON, &g); err != nil {
		return fmt.Errorf("decoding GraphJSON: %v", err)
	}
	if !g.Equal(up.Graph) {
		return fmt.Errorf("GraphJSON decodes to %v, Graph is %v", &g, up.Graph)
	}
	return nil
}

// TestGraphIDGolden pins the content IDs of three 32x32 graphs to the
// IDs of the encoding/json encoder that Graph.MarshalJSON replaced, and
// checks MarshalJSON byte for byte against that encoder, given the sorted
// edge list, on them and on edge cases. A single changed byte would give other nodes and older
// clients a different ID for the same graph.
func TestGraphIDGolden(t *testing.T) {
	grid := geo.MustGrid(32, 32, 1)
	g1 := Baseline(grid)
	golden := []struct {
		name string
		g    *policygraph.Graph
		id   string
	}{
		{"G1", g1, "9f02822117136ba1cae7b4956ade5d97"},
		{"Ga 8x8", ForMonitoring(grid, 8, 8), "f569adbf86d56722f8f3ea99fd25c5fc"},
		{"G1 isolating 0,5,77,1023", ForContactTracing(g1, []int{0, 5, 77, 1023}), "35ca87294ee23f3d4a98faf2b8032f95"},
	}
	for _, tc := range golden {
		if got := newSnapshot(tc.g, 1, 1, nil).policy.GraphID; got != tc.id {
			t.Errorf("%s: GraphID = %s, want %s", tc.name, got, tc.id)
		}
	}
	graphs := map[string]*policygraph.Graph{
		"no edges":   policygraph.New(7),
		"zero nodes": policygraph.New(0),
		"random":     policygraph.RandomSubsetER(200, 40, 0.3, rand.New(rand.NewPCG(1, 2))),
	}
	for _, tc := range golden {
		graphs[tc.name] = tc.g
	}
	for name, g := range graphs {
		edges := g.Edges()
		slices.SortFunc(edges, func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		want, err := json.Marshal(struct {
			Nodes int      `json:"nodes"`
			Edges [][2]int `json:"edges"`
		}{g.NumNodes(), edges})
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalJSON = %.80s… (%v), encoding/json wrote %.80s…", name, got, err, want)
		}
	}
}

// managerWithUsers returns a manager over grid's G1 baseline whose users
// 0..n-1 hold the default policy.
func managerWithUsers(tb testing.TB, grid *geo.Grid, n int) *Manager {
	tb.Helper()
	m, err := NewManager(grid, Baseline(grid), 1)
	if err != nil {
		tb.Fatal(err)
	}
	for u := 0; u < n; u++ {
		m.Get(u)
	}
	return m
}

// TestMarkInfectedCostIndependentOfUsers: an infection update builds the
// contact-tracing graph once and touches no user, so neither its count
// of allocations nor its bytes grow with the user count, and every user
// ends up holding that one graph.
func TestMarkInfectedCostIndependentOfUsers(t *testing.T) {
	grid := geo.MustGrid(32, 32, 1)
	type cost struct{ allocs, bytes float64 }
	perMark := func(users int) cost {
		const marks = 8
		m := managerWithUsers(t, grid, users)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for cell := 0; cell < marks; cell++ {
			if !m.MarkInfected([]int{cell}) {
				t.Fatalf("mark of cell %d was not effective", cell)
			}
		}
		runtime.ReadMemStats(&after)
		return cost{float64(after.Mallocs-before.Mallocs) / marks, float64(after.TotalAlloc-before.TotalAlloc) / marks}
	}
	small, large := perMark(100), perMark(100_000)
	if large.allocs > 1.1*small.allocs || large.bytes > 1.1*small.bytes {
		t.Errorf("MarkInfected costs %.0f allocs and %.0f B with 100,000 users, %.0f allocs and %.0f B with 100: cost grows with the user count",
			large.allocs, large.bytes, small.allocs, small.bytes)
	}
	m := managerWithUsers(t, grid, 2)
	m.MarkInfected([]int{0})
	if a, b := m.Get(0), m.Get(1); a.Graph != b.Graph {
		t.Error("two default users hold different graphs after a mark")
	}
}

// TestManagerGetKnownUserAllocs: the report path reads a known user's
// policy on every request, so the read must not allocate.
func TestManagerGetKnownUserAllocs(t *testing.T) {
	m := managerWithUsers(t, geo.MustGrid(8, 8, 1), 1000)
	m.MarkInfected([]int{3})
	var up UserPolicy
	if a := testing.AllocsPerRun(100, func() { up = m.Get(700) }); a != 0 {
		t.Errorf("Get on a known user allocates %v times, want 0", a)
	}
	if up.Version != 2 {
		t.Errorf("version %d after one mark, want 2", up.Version)
	}
}

// benchChanged keeps BenchmarkMarkInfected's result alive.
var benchChanged bool

// BenchmarkMarkInfected times one effective infection update at the
// user counts of a district, a city and a region.
func BenchmarkMarkInfected(b *testing.B) {
	grid := geo.MustGrid(32, 32, 1)
	for _, users := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			b.ReportAllocs()
			var m *Manager
			for i := 0; i < b.N; i++ {
				cell := i % grid.NumCells()
				if cell == 0 { // every cell is marked: start over
					b.StopTimer()
					m = managerWithUsers(b, grid, users)
					b.StartTimer()
				}
				benchChanged = m.MarkInfected([]int{cell})
			}
		})
	}
}

// BenchmarkPolicyGet reads known users' policies from parallel
// goroutines, as concurrent reports do in the server's policy check.
// Run it with -cpu 1,8,64 -mutexprofile to see that no read waits on a
// manager lock.
func BenchmarkPolicyGet(b *testing.B) {
	const users = 10_000
	m := managerWithUsers(b, geo.MustGrid(32, 32, 1), users)
	m.MarkInfected([]int{0})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for u := 0; pb.Next(); u = (u + 1) % users {
			if v := m.Get(u).Version; v != 2 {
				b.Errorf("user %d at version %d, want 2", u, v)
				return
			}
		}
	})
}

// TestManagerConcurrentAccess: while MarkInfected marks cells, Get on
// known and new users keeps answering with policies in which a version
// always names the same graph, whenever the user was first seen, and
// the encoding is always that graph's. Run it under -race.
func TestManagerConcurrentAccess(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	m, _ := NewManager(grid, Baseline(grid), 1)
	var (
		mu   sync.Mutex
		seen = make(map[int]*policygraph.Graph) // version -> graph
		wg   sync.WaitGroup
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				// Users 0..7 are known after their first Get; users from
				// 100 on are new on every call.
				for _, user := range []int{(id + j) % 8, 100 + id*50 + j} {
					up := m.Get(user)
					mu.Lock()
					g, ok := seen[up.Version]
					if !ok {
						seen[up.Version] = up.Graph
					}
					mu.Unlock()
					if ok && g != up.Graph {
						t.Errorf("version %d names two graphs (user %d)", up.Version, user)
						return
					}
					if err := checkEncoding(up); err != nil {
						t.Error(err)
						return
					}
				}
				m.MarkInfected([]int{j % 16})
				m.Version(id)
				m.InfectedCells()
			}
		}(i)
	}
	wg.Wait()
	if len(m.InfectedCells()) != 16 {
		t.Errorf("infected cells = %v", m.InfectedCells())
	}
	if v := m.Version(0); v != 17 {
		t.Errorf("version %d after 16 effective marks, want 17", v)
	}
}
