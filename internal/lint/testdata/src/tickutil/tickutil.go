// Package tickutil is a tangolint fixture helper: a non-sim utility
// package that hides a wall-clock read behind a layer of calls. The
// detfix and bothfix fixtures import it, which puts it in the sim
// packages' import closure: its sources are reported where they are
// written, whether a sim function reaches them or not.
package tickutil

import "time"

// Stamp returns a wall-clock timestamp through now.
func Stamp() int64 { return now() }

func now() int64 { return time.Now().UnixNano() } // want detertaint "wall-clock call time.Now in package"

// since is called by nothing, yet it reads the clock in the closure.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() } // want detertaint "wall-clock call time.Since"

// Pure is taint-free: calling it from sim-driven code is fine.
func Pure(x int64) int64 { return x * 2 }
