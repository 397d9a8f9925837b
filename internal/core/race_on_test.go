//go:build race

package core

// raceEnabled downscales the heaviest differential tests when the race
// detector multiplies their cost.
const raceEnabled = true
