package maqs_test

import (
	"context"
	"testing"

	"maqs"
)

// TestEchoCallAllocs is the end-to-end alloc-regression gate for the
// invocation hot path: one echo round trip over the in-memory network —
// stub, mediator, ORB, GIOP framing, server dispatch and back — must stay
// within a fixed allocation budget. The pooled hot path measures 17
// allocations per call (42 before pooling, ~24 before the server-side
// decode pools and FrameReader body reuse, 18 before the synchronous call
// waited on a Future instead of a context.WithTimeout, see
// docs/PERFORMANCE.md); the budget is the measured value plus one.
func TestEchoCallAllocs(t *testing.T) {
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	if err := server.Listen("server:1"); err != nil {
		t.Fatal(err)
	}
	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()

	ref, err := server.Activate("echo", "IDL:test/Echo:1.0", benchEcho{})
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	args := encodeOctets(client.ORB.Order(), []byte("alloc gate payload"))
	ctx := context.Background()

	// Warm the path so connection setup and pool population are excluded.
	for i := 0; i < 10; i++ {
		if _, err := stub.Call(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(200, func() {
		if _, err := stub.Call(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 18 + allocSlack
	if avg > maxAllocs {
		t.Fatalf("echo round trip allocates %.1f objects/op, budget is %d (pre-pooling baseline was 42)", avg, maxAllocs)
	}
	t.Logf("echo round trip: %.1f allocs/op (budget %d)", avg, maxAllocs)
}

// TestServerDispatchAllocs is the same end-to-end gate with the server's
// bounded dispatch pools enabled: the worker-pool path adds queue
// handoff, pooled args scratch and a pooled ServerRequest, and must not
// reintroduce per-request garbage. Measured 16 allocs/op — no more than
// the goroutine-per-request number, because the job, its args copy and
// the ServerRequest all come from pools. The budget is the measured value
// plus one.
func TestServerDispatchAllocs(t *testing.T) {
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{
		Transport:          n.Host("server"),
		DispatchWorkers:    4,
		DispatchQueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	if err := server.Listen("server:1"); err != nil {
		t.Fatal(err)
	}
	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()

	ref, err := server.Activate("echo", "IDL:test/Echo:1.0", benchEcho{})
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	args := encodeOctets(client.ORB.Order(), []byte("alloc gate payload"))
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := stub.Call(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(200, func() {
		if _, err := stub.Call(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 17 + allocSlack
	if avg > maxAllocs {
		t.Fatalf("bounded-dispatch round trip allocates %.1f objects/op, budget is %d", avg, maxAllocs)
	}
	t.Logf("bounded-dispatch round trip: %.1f allocs/op (budget %d)", avg, maxAllocs)
}

// TestEchoAsyncAllocs gates the asynchronous fast path: CallAsync + Wait
// for one echo must not allocate more than the synchronous call. Both
// take the same path — a pooled Future registered with the connection,
// dispatch on the calling goroutine, completion on the read loop — so
// they measure the same 17 allocs/op. The budget is the measured value
// plus one.
func TestEchoAsyncAllocs(t *testing.T) {
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	if err := server.Listen("server:1"); err != nil {
		t.Fatal(err)
	}
	client, err := maqs.NewSystem(maqs.Options{Transport: n.Host("client")})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()

	ref, err := server.Activate("echo", "IDL:test/Echo:1.0", benchEcho{})
	if err != nil {
		t.Fatal(err)
	}
	stub := client.Stub(ref)
	args := encodeOctets(client.ORB.Order(), []byte("alloc gate payload"))
	ctx := context.Background()

	call := func() {
		fut, err := stub.CallAsync(ctx, "echo", args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}

	avg := testing.AllocsPerRun(200, call)
	const maxAllocs = 18 + allocSlack
	if avg > maxAllocs {
		t.Fatalf("async echo round trip allocates %.1f objects/op, budget is %d", avg, maxAllocs)
	}
	t.Logf("async echo round trip: %.1f allocs/op (budget %d)", avg, maxAllocs)
}
