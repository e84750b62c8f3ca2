package main

import (
	"context"
	"net"
	"sync/atomic"

	"maqs/internal/giop"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// The decorators of the traced run. Each wraps one layer's public
// interface and records spans around the calls into it; none of them
// changes what the layer does. The untraced run installs none of them.

// tracedMediator decorates a qos.Mediator. It forwards every optional
// extension (delivery, adaptation, release) the stub looks for.
type tracedMediator struct {
	inner qos.Mediator
}

var (
	_ qos.DeliveryMediator   = (*tracedMediator)(nil)
	_ qos.AdaptiveMediator   = (*tracedMediator)(nil)
	_ qos.ReleasableMediator = (*tracedMediator)(nil)
)

func (m *tracedMediator) Characteristic() string { return m.inner.Characteristic() }

func (m *tracedMediator) PreInvoke(ctx context.Context, inv *orb.Invocation) error {
	_, cs, ok := startClient(ctx, spanMediatorHook)
	err := m.inner.PreInvoke(ctx, inv)
	if ok {
		cs.end()
	}
	return err
}

func (m *tracedMediator) PostInvoke(ctx context.Context, inv *orb.Invocation, out *orb.Outcome) (*orb.Outcome, error) {
	_, cs, ok := startClient(ctx, spanMediatorHook)
	out, err := m.inner.PostInvoke(ctx, inv, out)
	if ok {
		cs.end()
	}
	return out, err
}

func (m *tracedMediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	ctx, cs, ok := startClient(ctx, spanMediator)
	timedNext := func(ctx context.Context, inv *orb.Invocation) (*orb.Outcome, error) {
		ctx, ns, ok := startClient(ctx, spanMediatorNext)
		out, err := next(ctx, inv)
		if ok {
			ns.end()
		}
		return out, err
	}
	var out *orb.Outcome
	var err error
	if dm, takesOver := m.inner.(qos.DeliveryMediator); takesOver {
		out, err = dm.Deliver(ctx, inv, timedNext)
	} else {
		out, err = timedNext(ctx, inv)
	}
	if ok {
		cs.end()
	}
	return out, err
}

func (m *tracedMediator) ContractChanged(c *qos.Contract) error {
	if am, ok := m.inner.(qos.AdaptiveMediator); ok {
		return am.ContractChanged(c)
	}
	return nil
}

func (m *tracedMediator) Close() error {
	if rm, ok := m.inner.(qos.ReleasableMediator); ok {
		return rm.Close()
	}
	return nil
}

// tracedImpl decorates a qos.Impl, timing the skeleton's prolog and
// epilog.
type tracedImpl struct {
	qos.Impl
	rec *recorder
}

func (i *tracedImpl) Prolog(req *orb.ServerRequest, b *qos.Binding) error {
	t0 := i.rec.now()
	err := i.Impl.Prolog(req, b)
	i.rec.server(spanSkeleton, req.Args, t0, i.rec.now())
	return err
}

func (i *tracedImpl) Epilog(req *orb.ServerRequest, b *qos.Binding, invokeErr error) error {
	t0 := i.rec.now()
	err := i.Impl.Epilog(req, b, invokeErr)
	i.rec.server(spanSkeleton, req.Args, t0, i.rec.now())
	return err
}

// tracedServant decorates the application servant.
type tracedServant struct {
	inner orb.Servant
	rec   *recorder
}

func (s *tracedServant) Invoke(req *orb.ServerRequest) error {
	t0 := s.rec.now()
	err := s.inner.Invoke(req)
	s.rec.server(spanServant, req.Args, t0, s.rec.now())
	return err
}

// moduleSpans names the spans of one decorated transport module.
type moduleSpans struct{ client, next, server uint8 }

// tracedModule decorates a transport.Module: Send on the client side,
// its orb.IncomingFilter on the server side.
type tracedModule struct {
	inner transport.Module
	rec   *recorder
	names moduleSpans
}

var _ transport.Module = (*tracedModule)(nil)

func (m *tracedModule) Name() string                 { return m.inner.Name() }
func (m *tracedModule) Dynamic() *orb.DynamicServant { return m.inner.Dynamic() }
func (m *tracedModule) Close() error                 { return m.inner.Close() }

func (m *tracedModule) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	ctx, cs, ok := startClient(ctx, m.names.client)
	out, err := m.inner.Send(ctx, inv, func(ctx context.Context, inv *orb.Invocation) (*orb.Outcome, error) {
		ctx, ns, ok := startClient(ctx, m.names.next)
		out, err := next(ctx, inv)
		if ok {
			ns.end()
		}
		return out, err
	})
	if ok {
		cs.end()
	}
	return out, err
}

func (m *tracedModule) ServerFilter() orb.IncomingFilter {
	f := m.inner.ServerFilter()
	if f == nil {
		return nil
	}
	return &tracedFilter{inner: f, rec: m.rec, name: m.names.server}
}

// tracedFilter decorates a module's server-side orb.IncomingFilter. The
// link id is read after Inbound (which may decompress or decrypt the
// arguments) and before Outbound.
type tracedFilter struct {
	inner orb.IncomingFilter
	rec   *recorder
	name  uint8
}

func (f *tracedFilter) Inbound(req *orb.ServerRequest) error {
	t0 := f.rec.now()
	err := f.inner.Inbound(req)
	f.rec.server(f.name, req.Args, t0, f.rec.now())
	return err
}

func (f *tracedFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	t0 := f.rec.now()
	out, err := f.inner.Outbound(req, status, body)
	f.rec.server(f.name, req.Args, t0, f.rec.now())
	return out, err
}

// tracedFactory wraps a module factory so every module it builds is
// decorated; keep receives the undecorated module for its Stats.
func tracedFactory(factory transport.Factory, rec *recorder, names moduleSpans, keep func(transport.Module)) transport.Factory {
	return func(t *transport.Transport, config map[string]string) (transport.Module, error) {
		mod, err := factory(t, config)
		if err != nil {
			return nil, err
		}
		keep(mod)
		return &tracedModule{inner: mod, rec: rec, names: names}, nil
	}
}

// connCounts tallies socket calls on wrapped connections.
type connCounts struct {
	writes, reads atomic.Uint64
}

// countingTransport decorates a netsim.Transport: every connection it
// dials or accepts counts its Write and Read calls, which shows how well
// the broker coalesces frames into socket calls.
type countingTransport struct {
	inner  netsim.Transport
	counts *connCounts
}

func (t *countingTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, counts: t.counts}, nil
}

func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, counts: t.counts}, nil
}

type countingListener struct {
	net.Listener
	counts *connCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, counts: l.counts}, nil
}

type countingConn struct {
	net.Conn
	counts *connCounts
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.counts.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.counts.reads.Add(1)
	return c.Conn.Read(p)
}
