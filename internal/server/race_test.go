//go:build race

package server

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops a random quarter of the values put back: there,
// allocation counts measure the detector, not the code.
const raceEnabled = true
