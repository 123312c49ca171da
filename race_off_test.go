//go:build !race

package pilgrim_test

const raceEnabled = false
