//go:build !race

package encryption

// allocSlack is zero in normal builds: the budget holds exactly. See
// alloc_race_test.go for the race-detector build.
const allocSlack = 0
