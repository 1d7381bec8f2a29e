//go:build !race

package fragserver

const raceEnabled = false
