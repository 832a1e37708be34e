//go:build race

package wire

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// some of what it is given, so json.Valid's pooled scanner is allocated
// again now and then, and allocation pins do not hold.
const raceEnabled = true
