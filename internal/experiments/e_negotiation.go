package experiments

import (
	"context"
	"fmt"
	"time"

	"maqs/internal/contract"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// tierImpl offers a numeric "tier" parameter and vetoes tiers above its
// admission limit, so contract hierarchies have something to fall back
// over.
type tierImpl struct {
	qos.BaseImpl
	admitMax float64
}

func newTierImpl(offerMax, admitMax float64) *tierImpl {
	impl := &tierImpl{admitMax: admitMax}
	impl.Desc = &qos.Characteristic{Name: "Tiered"}
	impl.Capability = &qos.Offer{
		Characteristic: "Tiered",
		Params: []qos.ParamOffer{
			{Name: "tier", Kind: qos.KindNumber, Min: 1, Max: offerMax, Default: qos.Number(1)},
		},
	}
	return impl
}

func (i *tierImpl) BindingUp(b *qos.Binding) error {
	if b.Contract.Number("tier", 0) > i.admitMax {
		return fmt.Errorf("admission limit %g exceeded", i.admitMax)
	}
	return nil
}

// E8Negotiation measures the negotiation family latencies, the contract
// hierarchy resolution, and a full monitoring-driven adaptation loop.
func E8Negotiation() (*Table, error) {
	n := netsim.NewNetwork()
	server := orb.New(orb.Options{Transport: n.Host("server")})
	if err := server.Listen("server:1"); err != nil {
		return nil, err
	}
	defer server.Shutdown()
	skel := qos.NewServerSkeleton(echoServant{})
	if err := skel.AddQoS(newTierImpl(9, 3)); err != nil {
		return nil, err
	}
	ref, err := server.Adapter().ActivateQoS("svc", "IDL:x/Svc:1.0", skel,
		ior.QoSInfo{Characteristics: []string{"Tiered"}})
	if err != nil {
		return nil, err
	}
	client := orb.New(orb.Options{Transport: n.Host("client")})
	defer client.Shutdown()
	registry := qos.NewRegistry()
	if err := registry.Register(&qos.Characteristic{Name: "Tiered"}, nil); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "E8",
		Title:  "negotiation, renegotiation and adaptation",
		Claim:  "§3: per-relationship agreements, adaptation by renegotiation when resources change; outlook: preferences as contract hierarchies",
		Header: []string{"operation", "result", "latency"},
	}

	// Negotiation latency.
	const iters = 500
	stub := qos.NewStubWithRegistry(client, ref, registry)
	proposal := &qos.Proposal{
		Characteristic: "Tiered",
		Params:         []qos.ParamProposal{{Name: "tier", Desired: qos.Number(2)}},
	}
	negotiate, err := timeCalls(iters, func() error {
		if _, err := stub.Negotiate(context.Background(), proposal); err != nil {
			return err
		}
		return stub.Release(context.Background())
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"negotiate + release", "binding established", fmtDur(negotiate)})

	if _, err := stub.Negotiate(context.Background(), proposal); err != nil {
		return nil, err
	}
	renegotiate, err := timeCalls(iters, func() error {
		_, err := stub.Renegotiate(context.Background(), proposal)
		return err
	})
	if err != nil {
		return nil, err
	}
	epoch := stub.Binding().Contract.Epoch
	t.Rows = append(t.Rows, []string{"renegotiate", fmt.Sprintf("epoch now %d", epoch), fmtDur(renegotiate)})

	// Contract hierarchy: tier 9 resolves against the offer but admission
	// rejects it; the hierarchy falls back to tier 3.
	stub2 := qos.NewStubWithRegistry(client, ref, registry)
	root := contract.NewFallback("tiers",
		contract.NewLeaf("premium", 10, &qos.Proposal{
			Characteristic: "Tiered",
			Params:         []qos.ParamProposal{{Name: "tier", Desired: qos.Number(9)}},
		}),
		contract.NewLeaf("standard", 5, &qos.Proposal{
			Characteristic: "Tiered",
			Params:         []qos.ParamProposal{{Name: "tier", Desired: qos.Number(3)}},
		}),
	)
	start := time.Now()
	_, winner, err := contract.NegotiateBest(context.Background(), stub2, root)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"hierarchy fallback",
		fmt.Sprintf("%q admitted after %q vetoed", winner.Label, "premium"),
		fmtDur(time.Since(start)),
	})

	// Adaptation loop: a latency objective burns its error budget once
	// the link degrades, and a one-rung degrader renegotiates to tier 1.
	stub3 := qos.NewStubWithRegistry(client, ref, registry)
	if _, err := stub3.Negotiate(context.Background(), &qos.Proposal{
		Characteristic: "Tiered",
		Params:         []qos.ParamProposal{{Name: "tier", Desired: qos.Number(3)}},
	}); err != nil {
		return nil, err
	}
	slo := qos.NewSLOEngine(nil, nil)
	slo.SetObjective("Tiered", qos.Objective{Name: "latency", Target: 0.99, MaxRTT: 5 * time.Millisecond})
	stub3.SetObserver(slo.Observer("Tiered"))
	degrader := qos.NewDegrader(stub3, qos.DegradeStep{Name: "tier-1", Proposal: &qos.Proposal{
		Characteristic: "Tiered",
		Params:         []qos.ParamProposal{{Name: "tier", Desired: qos.Number(1)}},
	}})
	degrader.WatchSLO(slo)

	call := func() error {
		_, err := stub3.Call(context.Background(), "echo", []byte{0, 0, 0, 0})
		return err
	}
	for i := 0; i < 16; i++ {
		if err := call(); err != nil {
			return nil, err
		}
	}
	preDegrade := degrader.Level() > 0

	// Degrade the link and keep calling; the objective must burn.
	n.SetLink("client", "server", netsim.Link{Latency: 8 * time.Millisecond})
	// New connections pick up the link; cut the old one.
	n.Partition("client", "server")
	n.Heal("client", "server")
	start = time.Now()
	var fired bool
	for i := 0; i < 64 && !fired; i++ {
		_ = call() // the first call after the partition may fail; retry
		fired = degrader.Level() > 0
	}
	if preDegrade {
		return nil, fmt.Errorf("adaptation fired before degradation")
	}
	if !fired {
		return nil, fmt.Errorf("adaptation never fired after degradation")
	}
	t.Rows = append(t.Rows, []string{
		"adaptation (SLO burn→renegotiate)",
		fmt.Sprintf("tier now %g after latency budget burned", stub3.Binding().Contract.Number("tier", 0)),
		fmtDur(time.Since(start)),
	})
	t.Notes = append(t.Notes,
		"negotiation costs one extra round trip per agreement; adaptation closes the loop from monitoring to a renegotiated contract without touching application code")
	return t, nil
}
