//go:build !race

package maqs_test

// allocSlack is zero in normal builds: the budgets hold exactly. See
// alloc_race_test.go for the race-detector build.
const allocSlack = 0
