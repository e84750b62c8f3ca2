package orb

import (
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/obs"
)

// iiopModule is the built-in transport module: plain GIOP over the ORB's
// byte transport. It is both the default delivery path and the fall-back
// module the QoS transport uses for unassigned bindings.
type iiopModule struct {
	orb *ORB

	// Per-request counters, atomic because they sit on the hot path of
	// every invocation.
	requestsSent atomic.Uint64
	bytesSent    atomic.Uint64
	bytesRecv    atomic.Uint64
}

var _ TransportModule = (*iiopModule)(nil)

// Name implements TransportModule.
func (m *iiopModule) Name() string { return "iiop" }

// Stats reports cumulative request and byte counters (used by the
// accounting service and the benchmarks).
func (m *iiopModule) Stats() (requests, bytesSent, bytesRecv uint64) {
	return m.requestsSent.Load(), m.bytesSent.Load(), m.bytesRecv.Load()
}

// Send implements TransportModule: put the request on the wire, then wait
// on its Future. The wire.send span covers the whole round trip. For a
// oneway request Send returns as soon as the frame is written. Send
// returns LOCATION_FORWARD replies as they are; ORB.Invoke follows them.
func (m *iiopModule) Send(ctx context.Context, inv *Invocation) (*Outcome, error) {
	var f *Future
	if inv.ResponseExpected {
		f = m.orb.prepare(ctx, inv, nil)
		// The caller follows forwards itself (see Future.Wait).
		f.orb = nil
	}
	sp, registered, err := m.dispatch(ctx, inv, f)
	var out *Outcome
	switch {
	case err != nil:
		if f != nil && !registered {
			f.release()
		}
	case f == nil:
		out = &Outcome{Status: giop.ReplyNoException, Order: m.orb.opts.Order}
	default:
		out, err = f.Wait(ctx)
		if sp != nil && out != nil {
			sp.SetAttr("bytes_recv", strconv.Itoa(len(out.Data)))
		}
	}
	sp.RecordError(err)
	sp.End()
	return out, err
}

// dispatch writes inv's request frame under a wire.send span and returns
// the span still open, so the caller decides how much of the call it
// covers. The span's context goes into the request's SCTrace service
// context: this is where the trace crosses the process boundary, so the
// server's dispatch span becomes a child of the wire span. A nil f sends
// a oneway request. registered follows the clientConn.send contract.
func (m *iiopModule) dispatch(ctx context.Context, inv *Invocation, f *Future) (sp *obs.Span, registered bool, err error) {
	ctx, sp = obs.StartChild(ctx, "wire.send")
	if sp != nil {
		sp.SetOperation(inv.Operation)
		inv.Contexts = inv.Contexts.With(giop.SCTrace, sp.Context().Traceparent())
	}
	conn, err := m.orb.getConn(inv.Target.Profile.Addr())
	if err != nil {
		// The request never left this process: mark it retry-safe.
		return sp, false, notSent(err)
	}
	sent, registered, err := conn.send(ctx, inv, f)
	if err == nil {
		m.requestsSent.Add(1)
		m.bytesSent.Add(uint64(sent))
	}
	if sp != nil {
		sp.SetAttr("bytes_sent", strconv.Itoa(sent))
	}
	return sp, registered, err
}

// clientConn multiplexes concurrent requests over one connection.
type clientConn struct {
	orb  *ORB
	addr string
	raw  net.Conn
	// slot is the stripe slot this connection occupies (zero-based,
	// fixed at creation); invocations carry it into the flight recorder.
	slot int

	writeMu sync.Mutex // serialises whole messages

	// inFlight counts registered outstanding replies; the endpoint stripe
	// uses it for least-pending connection selection.
	inFlight atomic.Int32
	// pendingGauge mirrors inFlight into the per-endpoint stripe depth
	// gauge; inflightGauge is its per-stripe twin (the pipelining depth
	// signal). Both are resolved once at creation (nil without
	// observability).
	pendingGauge  *obs.Gauge
	inflightGauge *obs.Gauge

	// window, when non-nil, is the pipelining in-flight limiter: a slot
	// is acquired before a reply-expecting request registers and released
	// when its registration ends (reply matched, unregistered, or the
	// connection died). Capacity is Options.PipelineDepth.
	window chan struct{}

	mu            sync.Mutex
	nextID        uint32
	pending       map[uint32]*Future
	pendingLocate map[uint32]chan giop.LocateStatus
	err           error // sticky failure
}

func newClientConn(o *ORB, addr string, raw net.Conn, slot int) *clientConn {
	c := &clientConn{
		orb:           o,
		addr:          addr,
		raw:           raw,
		slot:          slot,
		pendingGauge:  o.Metrics().Gauge(`maqs_stripe_pending{endpoint="` + addr + `"}`),
		inflightGauge: o.Metrics().Gauge(`maqs_pipeline_inflight{endpoint="` + addr + `",stripe="` + strconv.Itoa(slot) + `"}`),
		pending:       make(map[uint32]*Future),
		pendingLocate: make(map[uint32]chan giop.LocateStatus),
	}
	if d := o.opts.PipelineDepth; d > 0 {
		c.window = make(chan struct{}, d)
	}
	return c
}

// trackPending shifts the stripe-selection counter and both exported
// depth gauges.
func (c *clientConn) trackPending(delta int32) {
	c.inFlight.Add(delta)
	c.pendingGauge.Add(int64(delta))
	c.inflightGauge.Add(int64(delta))
}

// acquireWindow blocks until a pipeline slot is free (no-op when
// pipelining is unbounded). timeout bounds the blocking wait when ctx
// carries no deadline: a future stores Options.RequestTimeout instead of
// wrapping its context, so without this bound a full window against a
// stalled server would block a deadline-less dispatch forever. Pass 0
// when ctx is already bounded. The timer is armed only on the blocked
// slow path, keeping the uncontended dispatch allocation-free. It must
// be called without c.mu held: slots are released by the read loop, and
// blocking under the demux lock would deadlock the connection.
func (c *clientConn) acquireWindow(ctx context.Context, timeout time.Duration) error {
	if c.window == nil {
		return nil
	}
	select {
	case c.window <- struct{}{}:
		return nil
	default:
	}
	var expire <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case c.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		if ctx.Err() == context.DeadlineExceeded {
			return NewSystemException(ExcTimeout, 7, "pipeline window to %s full past deadline", c.addr)
		}
		return ctx.Err()
	case <-expire:
		return NewSystemException(ExcTimeout, 7, "pipeline window to %s full past deadline", c.addr)
	}
}

// releaseWindow frees n pipeline slots.
func (c *clientConn) releaseWindow(n int) {
	if c.window == nil {
		return
	}
	for ; n > 0; n-- {
		<-c.window
	}
}

// register allocates a request id and, for a non-nil fut, enters the
// future in the pending map so the read loop can complete it. The caller
// must hold a pipeline window slot (acquireWindow) for a future; register
// fails fast on a dead connection so the slot can be returned.
func (c *clientConn) register(fut *Future) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	c.nextID++
	id := c.nextID
	if fut != nil {
		// Stamped before the future becomes visible to the read loop,
		// whose completion seals the flight record.
		fut.conn, fut.id = c, id
		fut.fl.rec.Stripe = c.slot
		c.pending[id] = fut
		c.trackPending(1)
	}
	return id, nil
}

func (c *clientConn) unregister(id uint32) {
	c.mu.Lock()
	_, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.trackPending(-1)
	}
	c.mu.Unlock()
	if ok {
		c.releaseWindow(1)
	}
}

// stage registers fut (nil: oneway) under a fresh request id and
// marshals inv's request — GIOP request header, then the argument
// payload — into e. It is the step every request writer shares.
func (c *clientConn) stage(e *cdr.Encoder, inv *Invocation, fut *Future) error {
	id, err := c.register(fut)
	if err != nil {
		return err
	}
	inv.Stripe = c.slot + 1
	h := giop.RequestHeader{
		Contexts:         inv.Contexts,
		RequestID:        id,
		ResponseExpected: fut != nil,
		ObjectKey:        inv.Target.Profile.ObjectKey,
		Operation:        inv.Operation,
	}
	h.Marshal(e)
	// The argument payload is spliced in as an octet sequence so its CDR
	// alignment is self-contained (see package doc).
	e.WriteOctets(inv.Args)
	return nil
}

// send writes inv's request frame and returns as soon as it is on the
// wire. A nil fut sends a oneway request. Otherwise fut is registered
// first and the read loop completes it when the reply arrives;
// out-of-order replies rendezvous through the pending map. With
// Options.PipelineDepth set, send blocks until the connection's in-flight
// window has a free slot, bounded by fut's stored RequestTimeout when ctx
// carries no deadline. sent is the encoded request size.
//
// registered reports whether fut entered the pending map. Once it has,
// the future's completion belongs to connection teardown: a write failure
// here calls close, which drains the pending map and completes every
// drained future with the sticky cause — possibly from a racing
// read-loop closer that still holds the reference. The caller must
// therefore NEVER pool a future after a registered failure (mirror
// Future.abandon); it resolves with the teardown cause. Failures with
// registered == false are retry-safe NotSentErrors and the caller remains
// the future's sole owner.
func (c *clientConn) send(ctx context.Context, inv *Invocation, fut *Future) (sent int, registered bool, err error) {
	if fut != nil {
		if err := c.acquireWindow(ctx, fut.timeout); err != nil {
			return 0, false, notSent(err)
		}
	}
	// Encode-phase timing covers marshal through frame write; zero cost
	// on the uninstrumented path.
	ob := c.orb.obsState.Load()
	var encStart time.Time
	if ob != nil {
		encStart = time.Now()
	}
	// The request frame is marshalled into a pooled encoder with the GIOP
	// header reserved up front, so header and body leave in one Write and
	// the buffer is recycled as soon as the frame is on the wire.
	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	if err := c.stage(e, inv, fut); err != nil {
		e.Release()
		// The pooled connection was already dead; nothing was sent.
		if fut != nil {
			c.releaseWindow(1)
		}
		return 0, false, notSent(err)
	}
	sent = e.Len()
	c.writeMu.Lock()
	err = giop.WriteFrame(c.raw, giop.MsgRequest, e, c.orb.opts.MaxFragment)
	c.writeMu.Unlock()
	e.Release()
	if err != nil {
		// close (ours, or a racing one from the read loop that already set
		// the sticky error) drains the pending map and completes fut with
		// the teardown cause; the unregister is a no-op after the drain but
		// covers the window where no close has swapped the map yet.
		cause := NewSystemException(ExcCommFailure, 2, "writing request to %s: %v", c.addr, err)
		c.close(cause)
		if fut != nil {
			c.unregister(fut.id)
		}
		return 0, fut != nil, cause
	}
	if ob != nil {
		enc := time.Since(encStart)
		// inv is the sender's; the future's copy is atomic because the
		// reply may already be racing in on the read loop, and a lost
		// sample stays benign.
		inv.encodeNs = int64(enc)
		if fut != nil {
			fut.encodeNs.Store(int64(enc))
		}
		ob.phase(inv.Binding).encode.Observe(enc)
	}
	return sent, fut != nil, nil
}

// absorbTraceReturn decodes a reply's SCTraceReturn service context (the
// server's compact span summaries for this trace) and injects the spans
// into the local tracer, so /trace?trace_id= shows one end-to-end tree.
// Malformed payloads are dropped silently: trace return is best-effort
// telemetry, never worth failing a reply over.
func (o *ORB) absorbTraceReturn(ctxs giop.ServiceContextList) {
	if len(ctxs) == 0 {
		return
	}
	ob := o.obsState.Load()
	if ob == nil {
		return
	}
	payload, ok := ctxs.Get(giop.SCTraceReturn)
	if !ok {
		return
	}
	recs, err := obs.DecodeTraceReturn(payload)
	if err != nil {
		return
	}
	for _, rec := range recs {
		ob.bundle.Tracer.Inject(rec)
	}
}

// sendCancel notifies the server that the client gave up on a request.
func (c *clientConn) sendCancel(id uint32) {
	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	(&giop.CancelRequestHeader{RequestID: id}).Marshal(e)
	c.writeMu.Lock()
	_ = giop.WriteFrame(c.raw, giop.MsgCancelRequest, e, 0)
	c.writeMu.Unlock()
	e.Release()
}

// locate issues a LocateRequest and waits for the LocateReply.
func (c *clientConn) locate(ctx context.Context, objectKey []byte) (giop.LocateStatus, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan giop.LocateStatus, 1)
	c.pendingLocate[id] = ch
	c.mu.Unlock()

	e := giop.AcquireFrameEncoder(c.orb.opts.Order)
	(&giop.LocateRequestHeader{RequestID: id, ObjectKey: objectKey}).Marshal(e)
	c.writeMu.Lock()
	err := giop.WriteFrame(c.raw, giop.MsgLocateRequest, e, 0)
	c.writeMu.Unlock()
	e.Release()
	if err != nil {
		c.close(NewSystemException(ExcCommFailure, 3, "writing locate request: %v", err))
		return 0, NewSystemException(ExcCommFailure, 3, "writing locate request: %v", err)
	}
	select {
	case st := <-ch:
		return st, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pendingLocate, id)
		c.mu.Unlock()
		return 0, ctx.Err()
	}
}

// readLoop demultiplexes replies until the connection dies. The frame
// reader reuses its body buffer across reads: reply data is copied into
// the Outcome and header unmarshalling copies what it keeps, so nothing
// outlives the loop iteration.
func (c *clientConn) readLoop() {
	fr := giop.NewFrameReader(c.raw)
	fr.ReuseBody(true)
	for {
		msg, err := fr.ReadMessage()
		if err != nil {
			c.close(NewSystemException(ExcCommFailure, 4, "connection to %s lost: %v", c.addr, err))
			return
		}
		switch msg.Type {
		case giop.MsgReply:
			d := msg.Decoder()
			h, err := giop.UnmarshalReplyHeader(d)
			if err != nil {
				c.orb.opts.Logger.Warn("orb: dropping malformed reply", "addr", c.addr, "err", err)
				continue
			}
			data, err := d.ReadOctets()
			if err != nil {
				c.orb.opts.Logger.Warn("orb: dropping reply with malformed body", "addr", c.addr, "err", err)
				continue
			}
			c.mu.Lock()
			fut, ok := c.pending[h.RequestID]
			if ok {
				delete(c.pending, h.RequestID)
				c.trackPending(-1)
			}
			c.mu.Unlock()
			if !ok {
				continue // cancelled or unknown
			}
			c.releaseWindow(1)
			out := &Outcome{
				Status:   h.Status,
				Data:     append([]byte(nil), data...),
				Contexts: h.Contexts,
				Order:    msg.Order,
			}
			c.orb.iiop.bytesRecv.Add(uint64(len(out.Data)))
			// Graft the server's returned span summaries before
			// completion: completion may end the client's spans, and the
			// sampler must see the server's spans first.
			c.orb.absorbTraceReturn(out.Contexts)
			fut.complete(out, nil)
		case giop.MsgLocateReply:
			d := msg.Decoder()
			h, err := giop.UnmarshalLocateReplyHeader(d)
			if err != nil {
				continue
			}
			c.mu.Lock()
			ch, ok := c.pendingLocate[h.RequestID]
			delete(c.pendingLocate, h.RequestID)
			c.mu.Unlock()
			if ok {
				ch <- h.Status
			}
		case giop.MsgCloseConnection:
			c.close(NewSystemException(ExcTransient, 5, "server %s closed the connection", c.addr))
			return
		case giop.MsgMessageError:
			c.close(NewSystemException(ExcCommFailure, 6, "peer %s reported a protocol error", c.addr))
			return
		default:
			c.orb.opts.Logger.Warn("orb: unexpected message on client connection",
				"addr", c.addr, "type", msg.Type.String())
		}
	}
}

// close fails all pending requests with cause and removes the connection
// from the pool.
func (c *clientConn) close(cause *SystemException) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = cause
	pending := c.pending
	c.pending = make(map[uint32]*Future)
	c.trackPending(int32(-len(pending)))
	locates := c.pendingLocate
	c.pendingLocate = make(map[uint32]chan giop.LocateStatus)
	c.mu.Unlock()

	c.raw.Close()
	c.orb.dropConn(c.addr, c)
	// Complete every pending future with the cause, so no Wait ever hangs
	// on a dead connection, and return the window slots the drained
	// registrations held.
	for _, fut := range pending {
		fut.complete(nil, cause)
	}
	c.releaseWindow(len(pending))
	for _, ch := range locates {
		ch <- giop.LocateUnknownObject
	}
}
