package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/characteristics/actuality"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
	"maqs/internal/netsim"
	"maqs/internal/obs"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// Operations of the benchmark servant.
const (
	opEcho = "echo"
	opGet  = "get_document"
	opPut  = "put_document"
)

const typeID = "IDL:maqs/Bench:1.0"

// lane is one client connection of an open-loop workload: one QoS class
// with its own client System, stub, payload bodies and paced rate.
type lane struct {
	stub   *qos.Stub
	order  cdr.ByteOrder
	bodies [][]byte
	rate   float64 // paced-phase requests per second
}

// env is one set-up instance of a workload: the in-process server, the
// clients, and (in the traced run) the decorators' recorder and counts.
type env struct {
	seed    uint64
	server  *maqs.System
	clients []*maqs.System
	lanes   []*lane
	churn   *churn

	rec      *recorder   // nil: untraced run
	conns    *connCounts // socket calls (traced run only)
	flate    []transport.Module
	secure   []transport.Module
	bundles  []*obs.Observability // every bundle in the process
	serverOb *obs.Observability
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Shutdown()
	}
	if e.server != nil {
		e.server.Shutdown()
	}
}

// docServant is the application object: echo plus a small document
// store. A write invalidates the Actuality characteristic's data version,
// as an application does when its data changes.
type docServant struct {
	mu   sync.Mutex
	docs map[uint64][]byte
	act  *actuality.Impl
}

func (s *docServant) Invoke(req *orb.ServerRequest) error {
	switch req.Operation {
	case opEcho:
		p, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		req.Out.WriteOctets(p)
		return nil
	case opGet:
		p, err := req.In().ReadOctets()
		if err != nil || len(p) != linkBytes {
			return orb.NewSystemException(orb.ExcMarshal, 1, "bad document key")
		}
		s.mu.Lock()
		doc := s.docs[binary.BigEndian.Uint64(p)]
		s.mu.Unlock()
		req.Out.WriteOctets(doc)
		return nil
	case opPut:
		p, err := req.In().ReadOctets()
		if err != nil || len(p) < linkBytes {
			return orb.NewSystemException(orb.ExcMarshal, 2, "bad document write")
		}
		doc := append([]byte(nil), p[linkBytes:]...)
		s.mu.Lock()
		s.docs[binary.BigEndian.Uint64(p)] = doc
		s.mu.Unlock()
		if s.act != nil {
			s.act.Invalidate()
		}
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 3, "no operation %q", req.Operation)
	}
}

// newSystem builds a System. In the traced run its connections count
// their socket calls and the standard module factories are registered
// decorated.
func (e *env) newSystem(opts maqs.Options) (*maqs.System, error) {
	if e.rec != nil {
		opts.Transport = &countingTransport{inner: &netsim.TCP{}, counts: e.conns}
		opts.SkipStandardModules = true
	}
	sys, err := maqs.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	if e.rec != nil {
		regs := []struct {
			name    string
			factory transport.Factory
			spans   moduleSpans
			keep    *[]transport.Module
		}{
			{compression.ModuleName, compression.NewModule, moduleSpans{spanFlateClient, spanFlateNext, spanFlateServer}, &e.flate},
			{encryption.ModuleName, encryption.NewModule, moduleSpans{spanSecureClient, spanSecureNext, spanSecureServer}, &e.secure},
		}
		for _, r := range regs {
			keep := r.keep
			f := tracedFactory(r.factory, e.rec, r.spans, func(m transport.Module) { *keep = append(*keep, m) })
			if err := sys.Transport.RegisterFactory(r.name, f); err != nil {
				sys.Shutdown()
				return nil, err
			}
		}
	}
	if opts.Observability != nil {
		e.bundles = append(e.bundles, opts.Observability)
	}
	return sys, nil
}

// server describes the in-process server of a workload.
type server struct {
	opts      maqs.Options
	admission *maqs.AdmissionController // fed negotiated contracts, or nil
	servant   orb.Servant
	impls     []qos.Impl // activate through a QoS skeleton when non-empty
	modules   []string
}

// startServer brings up the in-process server on a loopback TCP port
// and activates the servant.
func (e *env) startServer(s server) (*maqs.IOR, error) {
	sys, err := e.newSystem(s.opts)
	if err != nil {
		return nil, err
	}
	e.server = sys
	e.serverOb = s.opts.Observability
	if err := sys.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for _, m := range s.modules {
		if err := sys.LoadModule(m, nil); err != nil {
			return nil, err
		}
	}
	servant := s.servant
	if e.rec != nil {
		servant = &tracedServant{inner: servant, rec: e.rec}
	}
	if len(s.impls) == 0 {
		return sys.Activate("bench", typeID, servant)
	}
	skel := maqs.NewServerSkeleton(servant)
	if s.admission != nil {
		skel.SetAdmission(s.admission)
	}
	info := maqs.QoSInfo{Modules: s.modules}
	for _, impl := range s.impls {
		info.Characteristics = append(info.Characteristics, impl.Characteristic().Name)
		if e.rec != nil {
			impl = &tracedImpl{Impl: impl, rec: e.rec}
		}
		if err := skel.AddQoS(impl); err != nil {
			return nil, err
		}
	}
	return sys.ActivateQoS("bench", typeID, skel, info)
}

// newClient builds one client System.
func (e *env) newClient(opts maqs.Options) (*maqs.System, error) {
	sys, err := e.newSystem(opts)
	if err != nil {
		return nil, err
	}
	e.clients = append(e.clients, sys)
	return sys, nil
}

// negotiate binds a stub and, in the traced run, decorates its mediator.
func (e *env) negotiate(ctx context.Context, stub *qos.Stub, p *qos.Proposal) error {
	if _, err := stub.Negotiate(ctx, p); err != nil {
		return fmt.Errorf("negotiating %s: %w", p.Characteristic, err)
	}
	e.decorateMediator(stub)
	return nil
}

func (e *env) decorateMediator(stub *qos.Stub) {
	if m := stub.Mediator(); m != nil && e.rec != nil {
		stub.SetMediator(&tracedMediator{inner: m})
	}
}

// Workload set-ups. Each returns a ready env: server listening, modules
// loaded, contracts negotiated and the path warmed up.

const (
	echoSize        = 64
	compressionSize = 4 << 10
	encryptionSize  = 1 << 10
	bodiesPerLane   = 64
)

// Paced rates in requests per second, fixed numbers so the paced phase
// never backs up (see README.md). Echo runs at a quarter of the saturated
// throughput the benchmark measured on its first commit in the host's
// slow state (75k req/s). The multi-qos classes each run at the same
// share, a twentieth, of their own saturated throughput alone, as
// maqs-loadgen -self measured it on 2 CPUs (Compression 4 KiB ≈1.5k
// req/s, Encryption 1 KiB ≈20k req/s); that share also sets the mix of
// the saturate phase. The whole mix is then about an eighth of the
// benchmark's own saturated multi-qos throughput in the slow state.
const (
	plainRate = 18000

	multiShare            = 1.0 / 20
	compressionSaturation = 1500
	encryptionSaturation  = 20000
	compressionRate       = compressionSaturation * multiShare // 75
	encryptionRate        = encryptionSaturation * multiShare  // 1000
)

// Warm-up sizes, in operations per lane (or sessions per identity).
const (
	warmEcho        = 10000
	warmMulti       = 400
	warmChurnRounds = 100
)

func setupEchoPlain(ctx context.Context, seed uint64, rec *recorder) (*env, error) {
	e := &env{seed: seed, rec: rec, conns: &connCounts{}}
	ref, err := e.startServer(server{servant: &docServant{docs: map[uint64][]byte{}}})
	if err != nil {
		return e, err
	}
	client, err := e.newClient(maqs.Options{})
	if err != nil {
		return e, err
	}
	e.lanes = []*lane{{
		stub: client.Stub(ref), order: client.ORB.Order(),
		bodies: bodies(seed, 0, payloadRandom, echoSize, bodiesPerLane), rate: plainRate,
	}}
	return e, e.warm(ctx, warmEcho)
}

// observedBundle is the Observability bundle maqs-server and the loadgen
// smoke run carry: metrics, flight recorder, SLO engine (NewSystem wires
// it) and tail sampling keeping 10% of healthy traces.
func observedBundle() *obs.Observability {
	return obs.NewWithConfig(obs.Config{
		SpanCapacity:   64,
		FlightCapacity: 256,
		TailSampling:   &obs.TailSamplingConfig{HealthyKeepFraction: 0.1},
	})
}

func setupMultiQoS(ctx context.Context, seed uint64, rec *recorder) (*env, error) {
	e := &env{seed: seed, rec: rec, conns: &connCounts{}}
	policy := maqs.ClassPolicy{Workers: 4 * procs(), QueueDepth: 512}
	admission := maqs.NewAdmissionController(policy)
	ref, err := e.startServer(server{
		opts: maqs.Options{
			Observability:      observedBundle(),
			DispatchWorkers:    policy.Workers,
			DispatchQueueDepth: policy.QueueDepth,
			AdmissionPolicy:    admission.Policy,
		},
		admission: admission,
		servant:   &docServant{docs: map[uint64][]byte{}},
		impls:     []qos.Impl{compression.NewImpl(0), encryption.NewImpl(0)},
		modules:   []string{compression.ModuleName, encryption.ModuleName},
	})
	if err != nil {
		return e, err
	}
	classes := []struct {
		char, module string
		kind         payloadKind
		size         int
		rate         float64
		params       []qos.ParamProposal
	}{
		{maqs.Compression, compression.ModuleName, payloadText, compressionSize, compressionRate,
			[]qos.ParamProposal{{Name: compression.ParamLevel, Desired: qos.Number(6)}}},
		{maqs.Encryption, encryption.ModuleName, payloadRandom, encryptionSize, encryptionRate, nil},
	}
	for i, c := range classes {
		client, err := e.newClient(maqs.Options{
			Observability: observedBundle(),
			Resilience:    maqs.DefaultResiliencePolicy(),
		})
		if err != nil {
			return e, err
		}
		if err := client.LoadModule(c.module, nil); err != nil {
			return e, err
		}
		stub := client.Stub(ref)
		stub.DeclareIdempotent(opEcho)
		if err := e.negotiate(ctx, stub, &qos.Proposal{Characteristic: c.char, Params: c.params}); err != nil {
			return e, err
		}
		l := &lane{
			stub: stub, order: client.ORB.Order(),
			bodies: bodies(seed, i, c.kind, c.size, bodiesPerLane), rate: c.rate,
		}
		// One synchronous call completes the module's per-binding set-up
		// (the secure module's key exchange) before concurrent traffic:
		// concurrent first calls of a binding each start their own key
		// exchange, and all but the last one then fail their integrity
		// check (see README.md, "Known defects").
		if _, err := stub.Call(ctx, opEcho, encodeEcho(ctx, l.order, l.bodies[0], 0)); err != nil {
			return e, fmt.Errorf("first %s call: %w", c.char, err)
		}
		e.lanes = append(e.lanes, l)
	}
	return e, e.warm(ctx, warmMulti)
}

func setupChurn(ctx context.Context, seed uint64, rec *recorder) (*env, error) {
	e := &env{seed: seed, rec: rec, conns: &connCounts{}}
	act := actuality.NewImpl(0, time.Minute)
	ref, err := e.startServer(server{
		servant: &docServant{docs: map[uint64][]byte{}, act: act},
		impls:   []qos.Impl{act},
	})
	if err != nil {
		return e, err
	}
	client, err := e.newClient(maqs.Options{})
	if err != nil {
		return e, err
	}
	e.churn = newChurn(seed, client, ref, e)
	if rec != nil {
		rec.resolve = e.churn.currentOp
	}
	return e, e.churn.warm(ctx, warmChurnRounds)
}

// setups maps workload names to their set-up.
var setups = map[string]func(context.Context, uint64, *recorder) (*env, error){
	"echo-plain":     setupEchoPlain,
	"multi-qos":      setupMultiQoS,
	"contract-churn": setupChurn,
}
