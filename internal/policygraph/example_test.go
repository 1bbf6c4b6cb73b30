package policygraph_test

import (
	"fmt"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// ExampleGridEightNeighbor builds the paper's G1 policy graph and queries
// the graph distance of Def. 2.2.
func ExampleGridEightNeighbor() {
	grid := geo.MustGrid(4, 4, 1)
	g1 := policygraph.GridEightNeighbor(grid)
	fmt.Println("edges:", g1.NumEdges())
	fmt.Println("dG(corner, far corner):", g1.Distance(0, 15))
	// Output:
	// edges: 42
	// dG(corner, far corner): 3
}

// ExampleIsolateNodes builds a Gc contact-tracing policy: infected places
// become disclosable while the rest stay protected.
func ExampleIsolateNodes() {
	grid := geo.MustGrid(3, 3, 1)
	base := policygraph.GridEightNeighbor(grid)
	gc := policygraph.IsolateNodes(base, []int{4})
	fmt.Println("disclosable:", gc.IsolatedNodes())
	fmt.Println("still protected edges:", gc.NumEdges())
	// Output:
	// disclosable: [4]
	// still protected edges: 12
}
