//go:build !race

package jsymphony_test

const raceEnabled = false
