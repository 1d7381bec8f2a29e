//go:build race

package rdfgraph_test

// raceEnabled lets allocation tests skip under the race detector, whose
// instrumentation allocates on its own.
const raceEnabled = true
