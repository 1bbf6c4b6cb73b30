package mechanism

import (
	"fmt"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

// Kind names a mechanism family for configuration and reports.
type Kind string

// The mechanism families PANDA ships (paper §3.1 "Choose PGLP mechanisms").
const (
	KindGEM    Kind = "gem"    // graph exponential mechanism
	KindGEME   Kind = "geme"   // graph exponential with Euclidean scoring
	KindGLM    Kind = "glm"    // graph-calibrated planar Laplace
	KindPIM    Kind = "pim"    // planar isotropic mechanism (policy-aware)
	KindKNorm  Kind = "knorm"  // PIM without the isotropic transform (ablation)
	KindGeoInd Kind = "geoind" // geo-indistinguishability baseline (ignores G)
	KindNull   Kind = "null"   // exact release baseline (no privacy)
)

// Kinds returns all mechanism kinds in presentation order.
func Kinds() []Kind {
	return []Kind{KindGEM, KindGEME, KindGLM, KindPIM, KindKNorm, KindGeoInd, KindNull}
}

// New constructs a mechanism of the given kind. The policy graph is ignored
// by the geoind and null baselines (they are not policy-aware).
func New(kind Kind, grid *geo.Grid, g *policygraph.Graph, eps float64) (Mechanism, error) {
	switch kind {
	case KindGEM:
		return NewGraphExponential(grid, g, eps)
	case KindGEME:
		return NewGraphEuclidExponential(grid, g, eps)
	case KindGLM:
		return NewGraphLaplace(grid, g, eps)
	case KindPIM:
		return NewPIM(grid, g, eps, true)
	case KindKNorm:
		return NewPIM(grid, g, eps, false)
	case KindGeoInd:
		return NewGeoInd(grid, eps, 0)
	case KindNull:
		return NewNull(grid)
	default:
		return nil, fmt.Errorf("mechanism: unknown kind %q", kind)
	}
}
