package orb

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/netsim"
)

// countingConn counts the Reads and Writes that reach one end of a
// connection. Reads wait until gate is closed, and onWrite sees the
// running write count after every Write.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
	gate          <-chan struct{}
	onWrite       func(total int64)
}

func (c *countingConn) Read(p []byte) (int, error) {
	<-c.gate
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.onWrite(c.writes.Add(1))
	return n, err
}

// wrappingTransport is loopback TCP whose dialled and accepted
// connections pass through wrap.
type wrappingTransport struct {
	netsim.TCP
	wrap func(net.Conn) net.Conn
}

func (t *wrappingTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *wrappingTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &wrappingListener{Listener: l, wrap: t.wrap}, nil
}

type wrappingListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l *wrappingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// TestReadLoopsCoalesceFrames pipelines 64 async echoes on one loopback
// TCP connection and counts the Reads that reach the sockets. Each side's
// reads are held until the peer has written its whole burst, so the
// frames wait in the receive queue together: the buffered read loops must
// take them in far fewer Reads than messages, where a header-then-body
// reader needs four per echo. Writes stay at one per frame.
func TestReadLoopsCoalesceFrames(t *testing.T) {
	const calls = 64
	var serverReads, serverWrites, clientReads, clientWrites atomic.Int64
	// Each gate opens when the peer's burst is written, or at cleanup so a
	// failed run cannot leave a read loop parked on it.
	gate := func() (chan struct{}, func()) {
		ch := make(chan struct{})
		var once sync.Once
		return ch, func() { once.Do(func() { close(ch) }) }
	}
	requestsSent, openServer := gate()
	repliesSent, openClient := gate()
	openAt := func(open func()) func(int64) {
		return func(total int64) {
			if total == calls {
				open()
			}
		}
	}
	server := New(Options{Transport: &wrappingTransport{wrap: func(c net.Conn) net.Conn {
		return &countingConn{Conn: c, reads: &serverReads, writes: &serverWrites,
			gate: requestsSent, onWrite: openAt(openClient)}
	}}})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{ConnsPerEndpoint: 1, PipelineDepth: calls,
		Transport: &wrappingTransport{wrap: func(c net.Conn) net.Conn {
			return &countingConn{Conn: c, reads: &clientReads, writes: &clientWrites,
				gate: repliesSent, onWrite: openAt(openServer)}
		}}})
	t.Cleanup(func() {
		openServer()
		openClient()
		client.Shutdown()
		server.Shutdown()
	})

	ctx := context.Background()
	futs := make([]*Future, calls)
	for i := range futs {
		if futs[i], err = client.InvokeAsync(ctx, echoInvocation(client, ref, fmt.Sprintf("echo-%02d", i), false)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i, fut := range futs {
		out, err := fut.Wait(ctx)
		if err == nil {
			err = out.Err()
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got, err := out.Decoder().ReadString(); err != nil || got != fmt.Sprintf("echo-%02d", i) {
			t.Fatalf("call %d: reply %q, %v", i, got, err)
		}
	}
	reads := serverReads.Load() + clientReads.Load()
	t.Logf("%d echoes: %d server + %d client conn reads, %d + %d writes",
		calls, serverReads.Load(), clientReads.Load(), clientWrites.Load(), serverWrites.Load())
	if reads >= calls {
		t.Fatalf("%d conn reads for %d pipelined echoes; want fewer than one per echo", reads, calls)
	}
	if clientWrites.Load() != calls || serverWrites.Load() != calls {
		t.Fatalf("writes: client %d, server %d; want one per frame (%d each)", clientWrites.Load(), serverWrites.Load(), calls)
	}
}

// echoRequestFrame encodes a complete GIOP Request frame for the echo
// servant's "echo" operation.
func echoRequestFrame(t *testing.T, objectKey []byte, id uint32, msg string) []byte {
	t.Helper()
	args := cdr.NewEncoder(cdr.BigEndian)
	args.WriteString(msg)
	body := cdr.NewEncoder(cdr.BigEndian)
	(&giop.RequestHeader{RequestID: id, ResponseExpected: true, ObjectKey: objectKey, Operation: "echo"}).Marshal(body)
	body.WriteOctets(args.Bytes())
	var frame bytes.Buffer
	if err := giop.WriteMessage(&frame, giop.MsgRequest, cdr.BigEndian, body.Bytes()); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

// TestServerSurvivesSlowPeers runs two misbehaving raw peers against one
// server: one dribbles a valid request one octet per write, the other
// stalls halfway through a frame and never finishes it. Between the
// dribbled octets, a third connection (a regular ORB client) keeps
// calling, and every call must be answered; the dribbled request must get
// its own correct reply. The interleaving is seeded.
func TestServerSurvivesSlowPeers(t *testing.T) {
	w := newWorld(t)
	rng := rand.New(rand.NewSource(15))
	key := w.ref.Profile.ObjectKey

	stalled, err := w.net.Host("staller").Dial("server:9000")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	half := echoRequestFrame(t, key, 1, "never finished")
	if _, err := stalled.Write(half[:len(half)/2]); err != nil {
		t.Fatal(err)
	}

	dribbler, err := w.net.Host("dribbler").Dial("server:9000")
	if err != nil {
		t.Fatal(err)
	}
	defer dribbler.Close()
	payload := make([]byte, 24+rng.Intn(40))
	for i := range payload {
		payload[i] = 'a' + byte(rng.Intn(26))
	}
	frame := echoRequestFrame(t, key, 42, string(payload))

	calls := 0
	for i := range frame {
		if _, err := dribbler.Write(frame[i : i+1]); err != nil {
			t.Fatalf("dribbling octet %d: %v", i, err)
		}
		if rng.Intn(8) == 0 {
			msg := fmt.Sprintf("between-%d", i)
			if got, err := callEcho(t, w.client, w.ref, msg); err != nil || got != msg {
				t.Fatalf("third connection after %d dribbled octets: %q, %v", i+1, got, err)
			}
			calls++
		}
	}
	if calls == 0 {
		t.Fatal("seed interleaved no calls with the dribble")
	}

	msg, err := giop.ReadMessage(dribbler)
	if err != nil {
		t.Fatalf("reading the dribbled request's reply: %v", err)
	}
	if msg.Type != giop.MsgReply {
		t.Fatalf("dribbled request answered with %v", msg.Type)
	}
	d := msg.Decoder()
	h, err := giop.UnmarshalReplyHeader(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.RequestID != 42 || h.Status != giop.ReplyNoException {
		t.Fatalf("reply header = %+v", h)
	}
	data, err := d.ReadOctets()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cdr.NewDecoder(data, msg.Order).ReadString()
	if err != nil || got != string(payload) {
		t.Fatalf("dribbled echo = %q, %v; want %q", got, err, payload)
	}
}
