//go:build race

package compression

// Under the race detector sync.Pool drops a random quarter of Put objects
// and the instrumentation allocates on its own. The allocation budget
// widens by allocSlack, and the B/op ceiling is not checked: one dropped
// writer costs more than the whole ceiling.
const (
	allocSlack = 7
	poolsHold  = false
)
