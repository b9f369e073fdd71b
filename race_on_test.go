//go:build race

package jsymphony_test

// raceEnabled reports whether this binary was built with the race
// detector, whose instrumentation allocates and randomly bypasses
// sync.Pool, so allocation budgets do not hold under it.
const raceEnabled = true
