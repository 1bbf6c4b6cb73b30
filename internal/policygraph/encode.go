package policygraph

import (
	"fmt"
	"math"
	"strconv"
)

// maxNodes bounds the node count UnmarshalJSON accepts. A decoded graph
// holds a neighbor list for every node before it reads an edge, so
// without a bound a few bytes naming billions of nodes would exhaust the
// decoder's memory. 2^20 nodes is a 1024×1024 grid.
const maxNodes = 1 << 20

// MarshalJSON implements json.Marshaler. Publishing the policy graph is
// part of the system's transparency story (paper §2.1: "By making the
// policy graph public, the system has a high level of transparency"). It
// writes the canonical form {"nodes":N,"edges":[[u,v],…]}: keys in that
// order, every pair with u < v, pairs in lexicographic order, no
// whitespace. These are the bytes json.Marshal gives for a struct with
// the fields nodes and edges holding N and g.Edges(), and equal graphs
// get equal bytes, which policy content IDs hash. It never fails.
func (g *Graph) MarshalJSON() ([]byte, error) {
	digits := len(strconv.Itoa(g.n))
	b := make([]byte, 0, len(`{"nodes":,"edges":[]}`)+digits+g.m*(2*digits+4))
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(g.n), 10)
	b = append(b, `,"edges":`...)
	sep := byte('[') // opens the list, then separates its pairs
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				b = append(b, sep, '[')
				b = strconv.AppendInt(b, int64(u), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(v), 10)
				b = append(b, ']')
				sep = ','
			}
		}
	}
	if sep == '[' {
		b = append(b, '[')
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler. It accepts only the
// canonical form MarshalJSON writes, with at most 2^20 nodes and every
// pair in range, and parses it straight into a graph built in bulk. Any
// other input, even one encoding/json would read as the same graph, is
// refused: its bytes would not hash to the graph's content ID.
func (g *Graph) UnmarshalJSON(data []byte) error {
	p := canonicalParser{data: data}
	if !p.lit(`{"nodes":`) {
		return p.refuse()
	}
	n, ok := p.natural()
	if !ok || !p.lit(`,"edges":[`) {
		return p.refuse()
	}
	if n > maxNodes {
		return fmt.Errorf("policygraph: node count %d exceeds %d", n, maxNodes)
	}
	// Each pair takes at least the 6 bytes of "[0,1],".
	pairs := make([]int, 0, 2*(len(data)-p.pos)/6)
	for p.pos < len(data) && data[p.pos] != ']' {
		if len(pairs) > 0 && !p.lit(",") {
			return p.refuse()
		}
		if !p.lit("[") {
			return p.refuse()
		}
		u, ok := p.natural()
		if !ok || !p.lit(",") {
			return p.refuse()
		}
		v, ok := p.natural()
		if !ok || !p.lit("]") || u >= v || v >= n {
			return p.refuse()
		}
		if k := len(pairs); k > 0 && (u < pairs[k-2] || u == pairs[k-2] && v <= pairs[k-1]) {
			return p.refuse()
		}
		pairs = append(pairs, u, v)
	}
	if !p.lit("]}") || p.pos != len(data) {
		return p.refuse()
	}
	*g = *fromPairs(n, pairs)
	return nil
}

// canonicalParser reads the canonical graph form from data, from pos on.
type canonicalParser struct {
	data []byte
	pos  int
}

// refuse returns the error for input that leaves the canonical form at
// or before pos.
func (p *canonicalParser) refuse() error {
	return fmt.Errorf("policygraph: graph encoding is not canonical, or names a node out of range, at byte %d", p.pos)
}

// lit consumes s if the input continues with it.
func (p *canonicalParser) lit(s string) bool {
	if len(p.data)-p.pos < len(s) || string(p.data[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

// natural consumes a non-negative integer written as encoding/json writes
// one: decimal digits with no leading zero. It refuses one past
// math.MaxInt.
func (p *canonicalParser) natural() (int, bool) {
	start := p.pos
	x := 0
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		d := int(p.data[p.pos] - '0')
		if x > (math.MaxInt-d)/10 {
			return 0, false
		}
		x = 10*x + d
		p.pos++
	}
	if p.pos == start || p.data[start] == '0' && p.pos-start > 1 {
		return 0, false
	}
	return x, true
}
