//go:build race

package fleet

// raceEnabled reports a -race build, whose runtime allocates more than a
// plain one, and not the same count from run to run.
const raceEnabled = true
