package orb

import (
	"context"
	"errors"
	"testing"

	"maqs/internal/ior"
	"maqs/internal/netsim"
)

// TestLocationForwardFollowed verifies that a client transparently
// follows a LOCATION_FORWARD reply to the migrated object.
func TestLocationForwardFollowed(t *testing.T) {
	n := netsim.NewNetwork()
	// New home of the object.
	home := New(Options{Transport: n.Host("home")})
	if err := home.Listen("home:1"); err != nil {
		t.Fatal(err)
	}
	defer home.Shutdown()
	homeRef, err := home.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	// Old location: every request is answered with a forward.
	old := New(Options{Transport: n.Host("old")})
	if err := old.Listen("old:1"); err != nil {
		t.Fatal(err)
	}
	defer old.Shutdown()
	oldRef, err := old.Adapter().Activate("echo", "IDL:test/Echo:1.0",
		ServantFunc(func(req *ServerRequest) error {
			return &ForwardRequest{To: homeRef}
		}))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()
	got, err := callEcho(t, client, oldRef, "follow me")
	if err != nil {
		t.Fatal(err)
	}
	if got != "follow me" {
		t.Fatalf("echo = %q", got)
	}
}

// forwardCycle serves "ping" on a:1 and "pong" on b:1, each answering
// every request with a forward to the other, and returns a client ORB
// and the reference to ping.
func forwardCycle(t *testing.T) (*ORB, *ior.IOR) {
	t.Helper()
	n := netsim.NewNetwork()
	a := New(Options{Transport: n.Host("a")})
	if err := a.Listen("a:1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Shutdown)
	b := New(Options{Transport: n.Host("b")})
	if err := b.Listen("b:1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Shutdown)

	refA := ior.New("IDL:test/Echo:1.0", "a", 1, []byte("ping"))
	refB := ior.New("IDL:test/Echo:1.0", "b", 1, []byte("pong"))
	if _, err := a.Adapter().Activate("ping", "IDL:test/Echo:1.0",
		ServantFunc(func(*ServerRequest) error { return &ForwardRequest{To: refB} })); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Adapter().Activate("pong", "IDL:test/Echo:1.0",
		ServantFunc(func(*ServerRequest) error { return &ForwardRequest{To: refA} })); err != nil {
		t.Fatal(err)
	}

	client := New(Options{Transport: n.Host("client")})
	t.Cleanup(client.Shutdown)
	return client, refA
}

// TestLocationForwardLoopBounded verifies that mutual forwards terminate
// with TRANSIENT instead of looping.
func TestLocationForwardLoopBounded(t *testing.T) {
	client, refA := forwardCycle(t)
	_, err := callEcho(t, client, refA, "dizzy")
	var sys *SystemException
	if !errors.As(err, &sys) || sys.Name != ExcTransient {
		t.Fatalf("err = %v", err)
	}
}

// TestAsyncLocationForwardLoopBounded is the same cycle on the
// asynchronous path: Wait follows the forwards through the same bounded
// loop and ends with TRANSIENT minor 30.
func TestAsyncLocationForwardLoopBounded(t *testing.T) {
	client, refA := forwardCycle(t)
	fut, err := client.InvokeAsync(context.Background(), echoInvocation(client, refA, "dizzy", false))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.Wait(context.Background())
	var sys *SystemException
	if !errors.As(err, &sys) || sys.Name != ExcTransient || sys.Minor != 30 {
		t.Fatalf("err = %v, want TRANSIENT minor 30", err)
	}
}

// TestForwardRequestOutcomeRoundTrip pins the wire encoding.
func TestForwardRequestOutcomeRoundTrip(t *testing.T) {
	ref := ior.New("IDL:test/X:1.0", "h", 7, []byte("k"))
	out := OutcomeFromError(&ForwardRequest{To: ref}, 0)
	target, err := out.ForwardTarget()
	if err != nil {
		t.Fatal(err)
	}
	if !target.Equal(ref) {
		t.Fatalf("target = %+v", target)
	}
	var fwd *ForwardRequest
	if !errors.As(out.Err(), &fwd) || !fwd.To.Equal(ref) {
		t.Fatalf("Err() = %v", out.Err())
	}
	// Non-forward outcomes reject ForwardTarget.
	if _, err := OutcomeFromResult(nil, 0).ForwardTarget(); err == nil {
		t.Fatal("forward target from success outcome")
	}
}
