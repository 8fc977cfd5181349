//go:build race

package linalg

// raceEnabled reports whether the race detector instruments this build.
// Performance floors are not asserted under the detector: its per-access
// instrumentation compresses the production/reference ratio the floor checks.
const raceEnabled = true
