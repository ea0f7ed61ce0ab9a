//go:build race

package serve

// raceEnabled reports a race-detector build, where sync.Pool drops a
// quarter of its Puts at random.
const raceEnabled = true
