package compression

import (
	"bytes"
	"compress/flate"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// textPayload is n bytes of compressible, text-like data.
func textPayload(n int) []byte {
	return bytes.Repeat([]byte("quality of service for every object "), n/36+1)[:n]
}

// randomPayload is n incompressible bytes from a fixed LCG seed.
func randomPayload(n int, seed uint32) []byte {
	p := make([]byte, n)
	for i := range p {
		seed = seed*1664525 + 1013904223
		p[i] = byte(seed >> 24)
	}
	return p
}

// freshWrap is wrap as written before pooling: a new flate.Writer per
// payload. Pooled output must match it byte for byte, or peers that do
// not pool would see different frames.
func freshWrap(t *testing.T, p []byte, level, minSize int) []byte {
	t.Helper()
	if len(p) >= minSize {
		var buf bytes.Buffer
		buf.WriteByte(frameDeflate)
		var lenPrefix [4]byte
		putULongBE(lenPrefix[:], uint32(len(p)))
		buf.Write(lenPrefix[:])
		w, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() < len(p)+5 {
			return buf.Bytes()
		}
	}
	out := append([]byte{frameStored, 0, 0, 0, 0}, p...)
	putULongBE(out[1:5], uint32(len(p)))
	return out
}

func TestWrapMatchesFreshWriter(t *testing.T) {
	payloads := map[string][]byte{
		"text":     textPayload(4096),
		"random":   randomPayload(4096, 7),
		"min-1":    textPayload(127),
		"min":      textPayload(128),
		"min+1":    textPayload(129),
		"text-big": textPayload(100 << 10), // larger than the kept scratch
	}
	for _, level := range []int{1, 6, 9} {
		m := newModule(t, map[string]string{"level": fmt.Sprint(level)})
		// Two passes, so the second reuses writers that already
		// compressed every other payload.
		for pass := 0; pass < 2; pass++ {
			for name, p := range payloads {
				got, err := m.wrap(p)
				if err != nil {
					t.Fatal(err)
				}
				if want := freshWrap(t, p, level, m.minSize); !bytes.Equal(got, want) {
					t.Fatalf("level %d %s pass %d: pooled frame (%d bytes) differs from a fresh writer's (%d bytes)",
						level, name, pass, len(got), len(want))
				}
			}
		}
	}
}

func TestCorruptFrameDoesNotPoisonPool(t *testing.T) {
	m := newModule(t, nil)
	valid := make([][]byte, 4)
	frames := make([][]byte, len(valid))
	for i := range valid {
		valid[i] = append(textPayload(1000+i*700), randomPayload(64, uint32(i))...)
		w, err := m.wrap(valid[i])
		if err != nil {
			t.Fatal(err)
		}
		if w[0] != frameDeflate {
			t.Fatalf("payload %d stored, want deflate", i)
		}
		frames[i] = w
	}
	rejected := 0
	for round := 0; round < 1000; round++ {
		i := round % len(frames)
		bad := bytes.Clone(frames[i])
		switch round % 3 {
		case 0: // truncated stream
			bad = bad[:5+(len(bad)-5)/2]
		case 1: // flipped body byte
			bad[5+round%(len(bad)-5)] ^= 0xA5
		case 2: // garbage body, plausible length
			copy(bad[5:], randomPayload(len(bad)-5, uint32(round)))
		}
		if _, err := m.unwrap(bad); err != nil {
			rejected++
		}
		j := (i + 1) % len(frames)
		got, err := m.unwrap(frames[j])
		if err != nil {
			t.Fatalf("round %d: valid frame after a corrupt one: %v", round, err)
		}
		if !bytes.Equal(got, valid[j]) {
			t.Fatalf("round %d: valid frame after a corrupt one decoded wrongly", round)
		}
	}
	if rejected < 500 {
		t.Fatalf("only %d of 1000 corrupt frames rejected", rejected)
	}
}

func TestConcurrentWrapUnwrap(t *testing.T) {
	m := newModule(t, map[string]string{"min_size": "0"})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var p []byte
				if (g+i)%4 == 0 {
					p = randomPayload(512+i, uint32(g*100+i))
				} else {
					p = textPayload(256 + 97*g + i)
				}
				w, err := m.wrap(p)
				if err == nil {
					var u []byte
					if u, err = m.unwrap(w); err == nil && !bytes.Equal(u, p) {
						err = fmt.Errorf("goroutine %d round %d: round trip corrupted", g, i)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// allocDelta returns the bytes f allocates.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestUnwrapBoundsClaimedLength(t *testing.T) {
	m := newModule(t, nil)
	// A 2-byte deflate body claiming the 64 MiB limit: far past deflate's
	// 1032:1 ratio, so it must fail before allocating for the claim.
	frame := []byte{frameDeflate, 0, 0, 0, 0, 0x03, 0x00}
	putULongBE(frame[1:5], 64<<20)

	// A real 8 KiB deflate stream claiming 1,000 times its size is within
	// the ratio; the output may grow only as far as the bytes decode.
	var body bytes.Buffer
	w, _ := flate.NewWriter(&body, 6)
	w.Write(randomPayload(8<<10, 3))
	w.Close()
	lying := append([]byte{frameDeflate, 0, 0, 0, 0}, body.Bytes()...)
	putULongBE(lying[1:5], uint32(1000*body.Len()))

	for name, f := range map[string][]byte{"tiny body": frame, "short stream": lying} {
		var err error
		n := allocDelta(func() { _, err = m.unwrap(f) })
		if err == nil {
			t.Fatalf("%s: frame claiming %d bytes accepted", name, getULongBE(f[1:5]))
		}
		if n >= 1<<20 {
			t.Fatalf("%s: rejecting the frame allocated %d bytes, want < 1 MiB", name, n)
		}
	}
}

// BenchmarkFlateRoundTrip is one 4 KiB text message wrapped and
// unwrapped at level 6: the flate module's per-message cost on each side.
func BenchmarkFlateRoundTrip(b *testing.B) {
	m, err := NewModule(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	mod := m.(*Module)
	p := textPayload(4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		w, err := mod.wrap(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mod.unwrap(w); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFlateRoundTripAllocs gates BenchmarkFlateRoundTrip's figures: 2
// allocations per round trip (the wire frame and the decoded payload),
// budget 3; and at most 64 KiB, which any per-message flate.Writer
// (~800 KiB) would blow. Before pooling it was 28 allocations and
// ~840 KiB.
func TestFlateRoundTripAllocs(t *testing.T) {
	m := newModule(t, nil)
	p := textPayload(4096)
	roundTrip := func() {
		w, err := m.wrap(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.unwrap(w); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // populate the pools
	const maxAllocs = 3 + allocSlack
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > maxAllocs {
		t.Fatalf("flate round trip allocates %.1f objects/op, budget is %d", avg, maxAllocs)
	}
	t.Logf("flate round trip: %.1f allocs/op (budget %d)", avg, maxAllocs)
	if !poolsHold {
		return
	}
	const runs, maxBytes = 200, 64 << 10
	if per := allocDelta(func() {
		for i := 0; i < runs; i++ {
			roundTrip()
		}
	}) / runs; per > maxBytes {
		t.Fatalf("flate round trip allocates %d B/op, ceiling is %d", per, maxBytes)
	}
}
