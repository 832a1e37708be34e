//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// some of what it is given, so encoding/json's pooled encoder is allocated
// again now and then, and allocation pins do not hold.
const raceEnabled = true
