//go:build race

package encryption

// allocSlack widens the allocation budget under the race detector, whose
// instrumentation allocates on its own and whose sync.Pool drops a random
// quarter of Put objects.
const allocSlack = 7
