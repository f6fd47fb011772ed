//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of Puts: allocation counts on a pooled path vary run to run.
const raceEnabled = true
