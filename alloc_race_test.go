//go:build race

package maqs_test

// allocSlack widens the allocation budgets under the race detector, whose
// instrumentation allocates on its own and whose sync.Pool drops a random
// share of Put objects, so counts run about six higher and vary by one or
// two from run to run.
const allocSlack = 7
