// Package dp provides the differential-privacy primitives PANDA's
// mechanisms are built from: seeded random sources, planar Laplace
// (geo-indistinguishability) sampling, integer-shape gamma sampling for
// the K-norm mechanism, and a sliding-window ε budget under sequential
// composition.
package dp
