package encryption

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"maqs/internal/qos"
)

func TestConcurrentFirstCallsShareOneHandshake(t *testing.T) {
	w := newWorld(t)
	if _, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	const callers = 16
	start := make(chan struct{})
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d, err := w.stub.Call(context.Background(), "reveal", nil)
			if err == nil {
				var s string
				if s, err = d.ReadString(); err == nil && s != "ATTACK AT DAWN" {
					err = fmt.Errorf("reply %q", s)
				}
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent first call: %v", err)
		}
	}
	cm, _ := w.clientT.Module(ModuleName)
	sm, _ := w.serverT.Module(ModuleName)
	if c, s := cm.(*Module).Stats(), sm.(*Module).Stats(); c.Handshakes != 1 || s.Handshakes != 1 {
		t.Fatalf("handshakes: client %d, server %d, want 1 each", c.Handshakes, s.Handshakes)
	}
}

func TestConcurrentSealOpenWithRekey(t *testing.T) {
	m := testModule()
	const id = "binding-1"
	m.store(id, deriveKeys([]byte("secret 0"), id))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k, _ := m.lookup(id)
				p := bytes.Repeat([]byte{byte(g), byte(i)}, 100+g*37+i)
				sealed, err := m.seal(k, id, p)
				if err == nil {
					var opened []byte
					if opened, err = m.open(k, id, sealed); err == nil && !bytes.Equal(opened, p) {
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
	rekeys := make(chan int)
	go func() {
		n := 0
		defer func() { rekeys <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			m.store(id, deriveKeys([]byte(fmt.Sprintf("secret %d", n)), id))
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-rekeys; n == 0 {
		t.Fatal("no rekey ran during the traffic")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f := m.Stats().AuthFailures; f != 0 {
		t.Fatalf("%d auth failures", f)
	}
}

func TestSessionMACsAreKeyed(t *testing.T) {
	m := testModule()
	a := deriveKeys([]byte("secret a"), "b")
	b := deriveKeys([]byte("secret b"), "b")
	// Warm both sessions' MAC pools, then cross them: a pooled state must
	// never carry one session's key into another.
	for i := 0; i < 3; i++ {
		sa, err := m.seal(a, "b", []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.open(b, "b", sa); err == nil {
			t.Fatal("frame sealed under session a opened under session b")
		}
		if _, err := m.open(a, "b", sa); err != nil {
			t.Fatalf("own session rejected its frame: %v", err)
		}
	}
}

// BenchmarkSealOpen is one 1 KiB payload sealed and opened: the secure
// module's per-message cost on each side.
func BenchmarkSealOpen(b *testing.B) {
	m := testModule()
	k := testKeys()
	p := make([]byte, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		sealed, err := m.seal(k, "binding-1", p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.open(k, "binding-1", sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSealOpenAllocs gates BenchmarkSealOpen at its measured allocations
// plus one. Before the session kept its cipher and MAC states it was 22.
func TestSealOpenAllocs(t *testing.T) {
	m := testModule()
	k := testKeys()
	p := make([]byte, 1024)
	roundTrip := func() {
		sealed, err := m.seal(k, "binding-1", p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.open(k, "binding-1", sealed); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // populate the MAC pool
	const maxAllocs = 5 + allocSlack
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > maxAllocs {
		t.Fatalf("seal+open allocates %.1f objects/op, budget is %d", avg, maxAllocs)
	}
	t.Logf("seal+open: %.1f allocs/op (budget %d)", avg, maxAllocs)
}
