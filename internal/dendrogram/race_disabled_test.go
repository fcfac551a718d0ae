//go:build !race

package dendrogram

const raceEnabled = false
