package encryption

import (
	"bytes"
	"testing"
)

// FuzzOpen checks the integrity guarantee against arbitrary input: open
// must never panic and must reject both a raw fuzzed frame (a forgery)
// and a sealed frame with any bit flipped. The seed corpus is under
// testdata/fuzz/FuzzOpen.
func FuzzOpen(f *testing.F) {
	m := testModule()
	k := testKeys()
	const id = "binding-1"
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		if _, err := m.open(k, id, data); err == nil {
			t.Fatalf("forged %d-byte frame accepted", len(data))
		}
		sealed, err := m.seal(k, id, data)
		if err != nil {
			t.Fatal(err)
		}
		opened, err := m.open(k, id, sealed)
		if err != nil || !bytes.Equal(opened, data) {
			t.Fatalf("round trip failed: %v", err)
		}
		if mask == 0 {
			mask = 1
		}
		sealed[int(pos)%len(sealed)] ^= mask
		if _, err := m.open(k, id, sealed); err == nil {
			t.Fatalf("frame tampered at %d with %#x accepted", int(pos)%len(sealed), mask)
		}
	})
}
