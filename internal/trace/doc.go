// Package trace provides the mobility-dataset substrate of PANDA. The
// paper demonstrates on the Geolife and Gowalla datasets; those are
// external downloads, so this package supplies (a) seeded synthetic
// generators matched to their statistical shape — GeoLifeLike for dense
// GPS-style continuous movement and GowallaLike for sparse, popularity-
// skewed check-ins — and (b) CSV import/export so the real datasets can be
// dropped in.
package trace
