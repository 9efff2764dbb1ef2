package core

import "testing"

// SetEagerReadSet switches loads to the eager Algorithm 3 read path (the
// reference the lazy §4.5 search is checked against) until tb ends.
// Tests that use it must not run in parallel with other Runs.
func SetEagerReadSet(tb testing.TB, on bool) {
	old := eagerReadSet
	eagerReadSet = on
	tb.Cleanup(func() { eagerReadSet = old })
}

// SetCommitChance sets the store-buffer drain bias, a percentage in
// 1..99, until tb ends. Tests that use it must not run in parallel with
// other Runs.
func SetCommitChance(tb testing.TB, pct int) {
	if pct < 1 || pct > 99 {
		tb.Fatalf("commit chance %d outside 1..99", pct)
	}
	old := commitChance
	commitChance = pct
	tb.Cleanup(func() { commitChance = old })
}
