//go:build race

package main

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = true
