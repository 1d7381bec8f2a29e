//go:build !race

package rdfgraph_test

const raceEnabled = false
