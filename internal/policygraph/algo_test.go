package policygraph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDistancesPath(t *testing.T) {
	g := Path(5)
	d := g.DistancesFrom(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("d[%d] = %d, want %d", i, d[i], want)
		}
	}
	if g.Distance(0, 4) != 4 {
		t.Errorf("Distance(0,4) = %d", g.Distance(0, 4))
	}
	if g.Distance(2, 2) != 0 {
		t.Errorf("Distance(2,2) = %d", g.Distance(2, 2))
	}
}

func TestDistanceDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Distance(0, 3) != Unreachable {
		t.Errorf("Distance across components = %d, want Unreachable", g.Distance(0, 3))
	}
	d := g.DistancesFrom(0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Errorf("DistancesFrom = %v", d)
	}
}

func TestDistanceMatchesBFSProperty(t *testing.T) {
	// Property: bidirectional Distance agrees with DistancesFrom on random
	// graphs, is symmetric, and obeys the triangle inequality on finite
	// entries (Def. 2.2 is a graph metric within components).
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		n := 12 + int(seed%8)
		g := RandomER(n, 0.2, rng)
		for trial := 0; trial < 10; trial++ {
			u, v, w := rng.IntN(n), rng.IntN(n), rng.IntN(n)
			du := g.DistancesFrom(u)
			if g.Distance(u, v) != du[v] {
				return false
			}
			if g.Distance(u, v) != g.Distance(v, u) {
				return false
			}
			duv, duw, dwv := du[v], du[w], g.Distance(w, v)
			if duv >= 0 && duw >= 0 && dwv >= 0 && duv > duw+dwv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("Components = %v, want 4 groups", comps)
	}
	if !sameInts(comps[0], []int{0, 1, 2}) {
		t.Errorf("comps[0] = %v", comps[0])
	}
	if !sameInts(comps[1], []int{3}) {
		t.Errorf("comps[1] = %v", comps[1])
	}
	idx, _ := g.ComponentIndex()
	if idx[0] != idx[2] || idx[4] != idx[5] || idx[0] == idx[4] || idx[3] == idx[0] {
		t.Errorf("ComponentIndex = %v", idx)
	}
	for ci, comp := range comps {
		for _, u := range comp {
			if idx[u] != ci {
				t.Errorf("node %d labelled %d, listed in component %d", u, idx[u], ci)
			}
		}
	}
}

func TestComponentsPartitionUniverse(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 20
		g := RandomER(n, 0.1, rng)
		seen := make([]bool, n)
		for _, comp := range g.Components() {
			for _, u := range comp {
				if seen[u] {
					return false // overlap
				}
				seen[u] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false // not covering
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIsConnectedAndDiameter(t *testing.T) {
	if !Path(5).IsConnected() {
		t.Error("path should be connected")
	}
	g := New(4)
	g.AddEdge(0, 1)
	if g.IsConnected() {
		t.Error("graph with isolated nodes is not connected")
	}
	if New(0).IsConnected() {
		t.Error("empty graph is not connected")
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func toSet(a []int) map[int]bool {
	m := make(map[int]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	return m
}
