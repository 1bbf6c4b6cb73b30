package policygraph

import (
	"testing"

	"github.com/pglp/panda/internal/geo"
)

// benchGraph keeps the benchmarks' results alive.
var benchGraph *Graph

// benchInfected are the cells a 32x32 contact-tracing policy Gc isolates
// in these benchmarks.
var benchInfected = []int{0, 5, 77, 1023}

// BenchmarkGraphJSON encodes and decodes a 32x32 Gc, the graph a policy
// fetch after a mark moves: encode is the server's half, once per mark,
// and decode the client's, once per new graph.
func BenchmarkGraphJSON(b *testing.B) {
	gc := IsolateNodes(GridEightNeighbor(geo.MustGrid(32, 32, 1)), benchInfected)
	enc, err := gc.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			if _, err := gc.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			var g Graph
			if err := g.UnmarshalJSON(enc); err != nil {
				b.Fatal(err)
			}
			benchGraph = &g
		}
	})
}

// BenchmarkIsolateNodes builds a 32x32 Gc from G1, the graph an
// infection mark makes.
func BenchmarkIsolateNodes(b *testing.B) {
	g1 := GridEightNeighbor(geo.MustGrid(32, 32, 1))
	b.ReportAllocs()
	for b.Loop() {
		benchGraph = IsolateNodes(g1, benchInfected)
	}
}
