package policygraph

import (
	"encoding/json"
	"fmt"
)

// graphJSON is the wire representation of a policy graph. Publishing the
// policy graph is part of the system's transparency story (paper §2.1:
// "By making the policy graph public, the system has a high level of
// transparency").
type graphJSON struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{Nodes: g.n, Edges: g.Edges()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w graphJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Nodes < 0 {
		return fmt.Errorf("policygraph: negative node count %d", w.Nodes)
	}
	*g = *New(w.Nodes)
	for _, e := range w.Edges {
		if e[0] < 0 || e[0] >= w.Nodes || e[1] < 0 || e[1] >= w.Nodes {
			return fmt.Errorf("policygraph: edge %v out of range [0,%d)", e, w.Nodes)
		}
		if e[0] == e[1] {
			return fmt.Errorf("policygraph: self-loop on node %d", e[0])
		}
		g.AddEdge(e[0], e[1])
	}
	return nil
}
