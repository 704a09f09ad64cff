//go:build !race

package fleet

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
