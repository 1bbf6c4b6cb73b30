package mechanism

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// PIM is the Planar Isotropic Mechanism (Xiao & Xiong, CCS'15) adapted to
// location policy graphs, as the paper's technical report does: for each
// ∞-neighbor component C the *sensitivity hull*
//
//	K_C = conv{ ±(center(u) − center(v)) : {u,v} ∈ E(C) }
//
// is built from the policy edges, and the K-norm mechanism releases
// z = s + n with density proportional to exp(-ε·‖n‖_{K_C}). Since every
// policy edge difference lies in K_C, 1-neighbors are e^ε-indistinguishable
// and Lemma 2.1 follows by path composition, exactly as for GLM.
//
// With Isotropic enabled (the full PIM), the hull is first mapped to
// isotropic position by T = M^{-1/2} (M the second-moment matrix of the
// uniform distribution on K_C); the mechanism runs in the transformed
// space and maps back with T⁻¹. Because the gauge is invariant under
// invertible linear maps (‖T(x)‖_{T·K} = ‖x‖_K), the transform changes
// neither the privacy guarantee nor the release distribution — it is a
// numerical device that keeps sampling well conditioned on elongated
// hulls (in Xiao & Xiong's original it also speeds up convex-body
// sampling). BenchmarkPIMIsotropicAblation verifies the distributional
// invariance empirically: both variants report identical mean error.
//
// Degenerate hulls (all policy-edge vectors collinear, e.g. a path policy
// along one row) are inflated by a hair (degenerateInflate × longest edge)
// in the perpendicular direction. Enlarging K only relaxes the gauge, so
// ‖u−v‖_K ≤ 1 still holds for edges and privacy is preserved; the cost is
// a vanishing amount of extra noise.
type PIM struct {
	base
	isotropic bool
	comp      []int
	bodies    []*pimBody // per component; nil = exact release (no edges)
}

// degenerateInflate is the relative perpendicular inflation applied to
// zero-area sensitivity hulls.
const degenerateInflate = 1e-3

// pimBody caches the per-component sampling and density state.
type pimBody struct {
	hull  []geo.Point // K_C (possibly inflated), CCW, origin-symmetric
	t     geo.Mat2    // isotropic transform (identity when disabled)
	tInv  geo.Mat2
	detT  float64
	hullT []geo.Point // T·K_C
	tri   *geo.Triangulation
	areaT float64
}

// NewPIM builds a (policy-aware) PIM. isotropic selects the full PIM; when
// false the plain K-norm mechanism is used.
func NewPIM(grid *geo.Grid, g *policygraph.Graph, eps float64, isotropic bool) (*PIM, error) {
	b, err := newBase(grid, g, eps)
	if err != nil {
		return nil, err
	}
	comp, comps := g.ComponentIndex()
	m := &PIM{base: b, isotropic: isotropic, comp: comp}
	m.bodies = make([]*pimBody, len(comps))

	// Collect edge difference vectors per component.
	diffs := make([][]geo.Point, len(comps))
	for _, e := range g.Edges() {
		ci := m.comp[e[0]]
		d := grid.Center(e[0]).Sub(grid.Center(e[1]))
		diffs[ci] = append(diffs[ci], d, d.Neg())
	}
	for ci := range comps {
		if len(diffs[ci]) == 0 {
			continue // isolated node(s): exact release
		}
		body, err := newPIMBody(diffs[ci], eps, isotropic)
		if err != nil {
			return nil, fmt.Errorf("mechanism: component %d: %w", ci, err)
		}
		m.bodies[ci] = body
	}
	return m, nil
}

func newPIMBody(diffs []geo.Point, eps float64, isotropic bool) (*pimBody, error) {
	hull := geo.ConvexHull(diffs)
	if geo.PolygonArea(hull) < 1e-12 {
		hull = inflateDegenerate(hull)
	}
	body := &pimBody{hull: hull, t: geo.Identity2, tInv: geo.Identity2, detT: 1}
	if isotropic {
		moment := geo.SecondMoment(hull)
		t, err := moment.InvSqrtSym()
		if err == nil {
			tInv, err2 := t.Inverse()
			if err2 == nil {
				body.t = t
				body.tInv = tInv
				body.detT = t.Det()
			}
		}
		// On numerical failure fall back to the identity transform: the
		// mechanism stays private, only less isotropic.
	}
	body.hullT = geo.ApplyMat(body.t, hull)
	body.areaT = geo.PolygonArea(body.hullT)
	if body.areaT < 1e-18 {
		return nil, fmt.Errorf("sensitivity hull degenerated to area %g", body.areaT)
	}
	body.tri = geo.NewTriangulation(body.hullT)
	_ = eps
	return body, nil
}

// inflateDegenerate turns a segment (or point) hull into a thin symmetric
// parallelogram with perpendicular half-width degenerateInflate·‖a‖.
func inflateDegenerate(hull []geo.Point) []geo.Point {
	// Find the extreme vector.
	var a geo.Point
	for _, p := range hull {
		if p.Norm2() > a.Norm2() {
			a = p
		}
	}
	if a.IsZero() {
		a = geo.Pt(1, 0) // single point at origin: unit inflation
	}
	perp := geo.Pt(-a.Y, a.X).Scale(degenerateInflate)
	return geo.ConvexHull([]geo.Point{
		a.Add(perp), a.Sub(perp), a.Neg().Add(perp), a.Neg().Sub(perp),
	})
}

// Name implements Mechanism.
func (m *PIM) Name() string {
	if m.isotropic {
		return "pim"
	}
	return "knorm"
}

// Release implements Mechanism.
func (m *PIM) Release(rng *rand.Rand, s int) (geo.Point, error) {
	if err := m.checkCell(s); err != nil {
		return geo.Point{}, err
	}
	center := m.grid.Center(s)
	body := m.bodies[m.comp[s]]
	if body == nil {
		return center, nil // unprotected: exact disclosure
	}
	// K-norm sampling: r ~ Gamma(d+1, 1/ε), u uniform on T·K, noise = r·u.
	r := dp.GammaInt(rng, 3, 1/m.eps)
	u := body.tri.Sample(rng.Float64(), rng.Float64(), rng.Float64())
	noiseT := u.Scale(r)
	return center.Add(body.tInv.Apply(noiseT)), nil
}

// Likelihood implements Mechanism: the density of the released point z for
// true cell s, f(z) = |det T| · ε²/(2·area(T·K)) · exp(-ε·‖T(z-s)‖_{T·K}).
func (m *PIM) Likelihood(s int, z geo.Point) float64 {
	if !m.grid.InRange(s) {
		return 0
	}
	body := m.bodies[m.comp[s]]
	if body == nil {
		if m.isExactPoint(s, z) {
			return math.Inf(1)
		}
		return 0
	}
	v := body.t.Apply(z.Sub(m.grid.Center(s)))
	gauge := geo.GaugeNorm(body.hullT, v)
	if math.IsInf(gauge, 1) {
		return 0
	}
	return math.Abs(body.detT) * m.eps * m.eps / (2 * body.areaT) * math.Exp(-m.eps*gauge)
}
