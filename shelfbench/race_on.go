//go:build race

package main

// raceEnabled makes the benchmark refuse to run: the race detector slows
// the simulator and the server by an order of magnitude.
const raceEnabled = true
