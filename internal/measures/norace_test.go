//go:build !race

package measures

const raceEnabled = false
