package compression

import (
	"bytes"
	"testing"
)

// FuzzUnwrap feeds arbitrary frames to unwrap through one module, so the
// pooled readers see every corrupt frame the fuzzer finds before the next
// one. unwrap must never panic, and a frame it accepts must re-wrap and
// round-trip. The seed corpus is under testdata/fuzz/FuzzUnwrap.
func FuzzUnwrap(f *testing.F) {
	m, err := NewModule(nil, map[string]string{"min_size": "16"})
	if err != nil {
		f.Fatal(err)
	}
	mod := m.(*Module)
	f.Fuzz(func(t *testing.T, frame []byte) {
		out, err := mod.unwrap(frame)
		if err != nil {
			return
		}
		w, err := mod.wrap(out)
		if err != nil {
			t.Fatalf("re-wrapping %d unwrapped bytes: %v", len(out), err)
		}
		back, err := mod.unwrap(w)
		if err != nil {
			t.Fatalf("unwrapping a re-wrapped frame: %v", err)
		}
		if !bytes.Equal(back, out) {
			t.Fatal("re-wrapped frame does not round-trip")
		}
	})
}
