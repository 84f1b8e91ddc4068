//go:build race

package main

// raceEnabled reports whether the race detector is on; it slows the
// servers below the rates the workloads offer.
const raceEnabled = true
