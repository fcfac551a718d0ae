//go:build !race

package wspd

const raceEnabled = false
