//go:build !race

package compression

// In normal builds the budgets hold exactly. See alloc_race_test.go for
// the race-detector build.
const (
	allocSlack = 0
	poolsHold  = true
)
