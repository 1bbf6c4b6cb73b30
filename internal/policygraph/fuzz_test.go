package policygraph

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// FuzzGraphJSON checks that arbitrary byte inputs never panic the decoder
// and that it accepts exactly the canonical encodings of the graphs that
// decodeByEdges, the encoding/json reference, reads: every input it
// accepts is the canonical encoding of the reference's graph, and the
// canonical encoding of every graph the reference reads decodes to that
// graph.
func FuzzGraphJSON(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":4,"edges":[[0,1],[2,3]]}`,
		`{"nodes":0,"edges":[]}`,
		`{"nodes":-1}`,
		`{"nodes":3,"edges":[[0,0]]}`,
		`garbage`,
		// whitespace, keys in another order or case
		` {"nodes": 4, "edges": [ [0,1], [2,3] ]}`,
		`{"edges":[[0,1],[2,3]],"nodes":4}`,
		`{"NODES":4,"Edges":[[0,1]]}`,
		// duplicate, reversed and unsorted edges
		`{"nodes":4,"edges":[[0,1],[0,1]]}`,
		`{"nodes":4,"edges":[[1,0],[3,2]]}`,
		`{"nodes":4,"edges":[[2,3],[0,1]]}`,
		// 1- and 3-element pairs
		`{"nodes":4,"edges":[[1]]}`,
		`{"nodes":4,"edges":[[0,1,2]]}`,
		// leading zeros, negative and 20-digit numbers
		`{"nodes":04,"edges":[[0,1]]}`,
		`{"nodes":4,"edges":[[00,1]]}`,
		`{"nodes":4,"edges":[[0,-1]]}`,
		`{"nodes":4,"edges":[[0,12345678901234567890]]}`,
		`{"nodes":12345678901234567890,"edges":[]}`,
		// node counts at and past the bound
		`{"nodes":1048576,"edges":[[0,1048575]]}`,
		`{"nodes":1048577,"edges":[]}`,
		`{"nodes":7890134567890,"edges":[]}`,
		// out of range, null edges, trailing bytes
		`{"nodes":4,"edges":[[0,4]]}`,
		`{"nodes":4,"edges":null}`,
		`{"nodes":4,"edges":[[0,1]]}x`,
		`{"nodes":4,"edges":[[0,1]]} `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		err := g.UnmarshalJSON(data)
		ref, refErr := decodeByEdges(data)
		if err == nil {
			if refErr != nil {
				t.Fatalf("decoder accepted what the reference refuses: %v", refErr)
			}
			if !g.Equal(ref) {
				t.Fatalf("decoder built %v with edges %v, reference %v with %v", &g, g.Edges(), ref, ref.Edges())
			}
			if out, _ := g.MarshalJSON(); !bytes.Equal(out, data) {
				t.Fatalf("decoder accepted %q, whose canonical encoding is %q", data, out)
			}
		}
		if refErr != nil {
			return // rejected inputs are fine; panics are not
		}
		// The reference's graph encodes into the bytes json.Marshal gives
		// for its sorted edge list, and those bytes decode back to it.
		edges := ref.Edges()
		slices.SortFunc(edges, func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		want, err := json.Marshal(graphJSON{Nodes: ref.NumNodes(), Edges: edges})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("encode failed: %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("encoding is %s, want %s", out, want)
		}
		var back Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("decoding the canonical encoding failed: %v", err)
		}
		if !back.Equal(ref) {
			t.Fatal("round trip not lossless")
		}
		// Graph invariants hold.
		if back.NumEdges() < 0 || back.NumNodes() < 0 {
			t.Fatal("negative counts")
		}
		for _, e := range back.Edges() {
			if !back.HasEdge(e[0], e[1]) {
				t.Fatal("Edges lists a non-edge")
			}
		}
	})
}

// graphJSON is the wire form of a graph as encoding/json reads and
// writes it.
type graphJSON struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

// decodeByEdges is the reference decoder: encoding/json into graphJSON,
// then one AddEdge per pair into an empty graph. Unlike UnmarshalJSON it
// reads any JSON form of a graph: keys in any order or case, whitespace,
// reversed and duplicate edges.
func decodeByEdges(data []byte) (*Graph, error) {
	var w graphJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.Nodes < 0 || w.Nodes > maxNodes {
		return nil, fmt.Errorf("node count %d out of range", w.Nodes)
	}
	g := New(w.Nodes)
	for _, e := range w.Edges {
		if e[0] < 0 || e[0] >= w.Nodes || e[1] < 0 || e[1] >= w.Nodes || e[0] == e[1] {
			return nil, fmt.Errorf("bad edge %v", e)
		}
		g.AddEdge(e[0], e[1])
	}
	return g, nil
}
