package policygraph

import (
	"encoding/json"
	"slices"
	"testing"

	"github.com/pglp/panda/internal/geo"
)

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Error("AddEdge(0,1) should add")
	}
	if g.AddEdge(1, 0) {
		t.Error("duplicate edge should not add")
	}
	if g.AddEdge(2, 2) {
		t.Error("self-loop should not add")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should be undirected")
	}
	if !g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge should remove")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge of absent edge should report false")
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range node")
		}
	}()
	g.AddEdge(0, 5)
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 4)
	if g.Degree(0) != 3 {
		t.Errorf("Degree(0) = %d", g.Degree(0))
	}
	got := g.Neighbors(0)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v (sorted)", got, want)
		}
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestIsolatedNodes(t *testing.T) {
	g := New(5)
	g.AddEdge(1, 2)
	iso := g.IsolatedNodes()
	want := []int{0, 3, 4}
	if len(iso) != 3 {
		t.Fatalf("IsolatedNodes = %v, want %v", iso, want)
	}
	for i := range want {
		if iso[i] != want[i] {
			t.Fatalf("IsolatedNodes = %v, want %v", iso, want)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("clone should equal original")
	}
	c.AddEdge(4, 5)
	if g.Equal(c) {
		t.Error("modified clone should differ")
	}
	if g.Equal(New(5)) {
		t.Error("different universes should differ")
	}
	if g.Equal(nil) {
		t.Error("nil should differ")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	sub := g.InducedSubgraph([]int{1, 2, 3})
	if sub.NumNodes() != 5 {
		t.Errorf("induced subgraph universe changed: %d", sub.NumNodes())
	}
	if !sub.HasEdge(1, 2) || !sub.HasEdge(2, 3) {
		t.Error("interior edges should survive")
	}
	if sub.HasEdge(0, 1) || sub.HasEdge(3, 4) {
		t.Error("boundary edges should be dropped")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 5)
	g.AddEdge(1, 2)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(&back) {
		t.Errorf("round trip mismatch: %v vs %v", g.Edges(), back.Edges())
	}
}

func TestJSONRejectsBadInput(t *testing.T) {
	var g Graph
	for _, bad := range []string{
		`{"nodes":-1,"edges":[]}`,
		`{"nodes":3,"edges":[[0,5]]}`,
		`{"nodes":3,"edges":[[1,1]]}`,
		`{"nodes":3,"edges":[[-1,0]]}`,
		`{"nodes":1048577,"edges":[]}`,
		`{"nodes":7890134567890,"edges":[]}`,
		`{"edges":[[0,1]],"nodes":3}`,
		`{"nodes":3,"edges":[[1,0]]}`,
	} {
		if err := json.Unmarshal([]byte(bad), &g); err == nil {
			t.Errorf("expected error for %s", bad)
		}
	}
}

// TestBulkGraphsShareNoLists: the neighbor lists of a graph built in bulk
// (a Clone, an IsolateNodes result, a decoded graph) share one backing
// array, yet AddEdge and RemoveEdge on one node never change the graph it
// was built from or any other node's list.
func TestBulkGraphsShareNoLists(t *testing.T) {
	grid := geo.MustGrid(6, 6, 1)
	src := GridEightNeighbor(grid)
	srcLists := neighborLists(src)
	enc, err := src.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() *Graph{
		"clone":   src.Clone,
		"isolate": func() *Graph { return IsolateNodes(src, []int{7, 14, 15}) },
		"decode": func() *Graph {
			var g Graph
			if err := g.UnmarshalJSON(enc); err != nil {
				t.Fatal(err)
			}
			return &g
		},
	} {
		g := build()
		want := neighborLists(g)
		n := g.NumNodes()
		edit := func(u, v int, add bool) {
			if add && g.AddEdge(u, v) {
				want[u] = insertSorted(want[u], v)
				want[v] = insertSorted(want[v], u)
			}
			if !add && g.RemoveEdge(u, v) {
				want[u] = slices.DeleteFunc(want[u], func(x int) bool { return x == v })
				want[v] = slices.DeleteFunc(want[v], func(x int) bool { return x == u })
			}
		}
		for u := 0; u < n; u++ {
			// Grow a full list, shrink one, then grow it back in place.
			edit(u, (u+n/2)%n, true)
			if len(want[u]) > 0 {
				edit(u, want[u][0], false)
			}
			edit(u, (u+1)%n, true)
			if got := neighborLists(g); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: after editing node %d the lists are %v, want %v", name, u, got, want)
			}
			if got := neighborLists(src); !slices.EqualFunc(got, srcLists, slices.Equal) {
				t.Fatalf("%s: editing node %d changed the source graph", name, u)
			}
		}
	}
}

func neighborLists(g *Graph) [][]int {
	out := make([][]int, g.NumNodes())
	for u := range out {
		out[u] = g.Neighbors(u)
	}
	return out
}

func insertSorted(s []int, x int) []int {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}
