package replication

import (
	"context"
	"sync"

	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// DeliveryStats counts the mediator's fault-masking work.
type DeliveryStats struct {
	// Invocations is the number of logical calls delivered.
	Invocations uint64
	// FanOut is the number of physical sends.
	FanOut uint64
	// MaskedFailures counts replica failures hidden from the client.
	MaskedFailures uint64
	// VoteRounds and VoteDisagreements count majority voting activity.
	VoteRounds, VoteDisagreements uint64
}

// Mediator is the client-side replication aspect.
type Mediator struct {
	qos.BaseMediator
	stub *qos.Stub

	mu       sync.Mutex
	strategy string
	voting   bool
	replicas int
	members  []string
	bindings map[string]*qos.Binding
	stats    DeliveryStats
}

var (
	_ qos.DeliveryMediator = (*Mediator)(nil)
	_ qos.AdaptiveMediator = (*Mediator)(nil)
)

// NewMediator builds the replication mediator; group membership comes
// from the cluster reference's ordered endpoints (falling back to the
// profile endpoint).
func NewMediator(st *qos.Stub, b *qos.Binding) (*Mediator, error) {
	endpoints, err := st.Target().AlternateEndpoints()
	if err != nil {
		return nil, err
	}
	if len(endpoints) == 0 {
		endpoints = []string{st.Target().Profile.Addr()}
	}
	m := &Mediator{
		BaseMediator: qos.BaseMediator{Char: Name},
		stub:         st,
		members:      endpoints,
		bindings:     make(map[string]*qos.Binding),
	}
	m.applyContract(b.Contract)
	m.bindings[st.Target().Profile.Addr()] = b
	return m, nil
}

func (m *Mediator) applyContract(c *qos.Contract) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.strategy = c.Text(ParamStrategy, StrategyActive)
	m.voting = c.Flag(ParamVoting, false)
	m.replicas = int(c.Number(ParamReplicas, 2))
	if m.replicas < 1 {
		m.replicas = 1
	}
}

// ContractChanged implements qos.AdaptiveMediator.
func (m *Mediator) ContractChanged(c *qos.Contract) error {
	m.applyContract(c)
	return nil
}

// Stats snapshots the delivery counters.
func (m *Mediator) Stats() DeliveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Members returns the current group view.
func (m *Mediator) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...)
}

// SetMembers replaces the group view (tests and group-change listeners).
func (m *Mediator) SetMembers(members []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members = append([]string(nil), members...)
}

// engaged returns the first k members, per the contracted replica count.
func (m *Mediator) engaged() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.replicas
	if k > len(m.members) {
		k = len(m.members)
	}
	return append([]string(nil), m.members[:k]...)
}

func (m *Mediator) binding(endpoint string) (*qos.Binding, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bindings[endpoint]
	return b, ok
}

func (m *Mediator) dropBinding(endpoint string) {
	m.mu.Lock()
	delete(m.bindings, endpoint)
	m.mu.Unlock()
}

// ensureBinding negotiates a per-replica binding on first contact.
func (m *Mediator) ensureBinding(ctx context.Context, endpoint string) (*qos.Binding, error) {
	if b, ok := m.binding(endpoint); ok {
		return b, nil
	}
	target, err := endpointTarget(m.stub.Target(), endpoint)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	var template *qos.Contract
	for _, b := range m.bindings {
		template = b.Contract
		break
	}
	m.mu.Unlock()
	proposal := &qos.Proposal{Characteristic: Name}
	if template != nil {
		proposal = qos.ProposalFromContract(template)
	}
	b, err := qos.NegotiateRaw(ctx, m.stub.ORB(), target, proposal)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.bindings[endpoint] = b
	m.mu.Unlock()
	return b, nil
}

// sendTo delivers one tagged invocation to one replica.
func (m *Mediator) sendTo(ctx context.Context, inv *orb.Invocation, endpoint string, next qos.Next) (*orb.Outcome, error) {
	binding, err := m.ensureBinding(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	target, err := endpointTarget(m.stub.Target(), endpoint)
	if err != nil {
		return nil, err
	}
	routed := inv.Clone()
	routed.Target = target
	routed.Contexts = routed.Contexts.With(giop.SCQoS, qos.QoSTag{
		Characteristic: binding.Characteristic,
		BindingID:      binding.ID,
		Module:         binding.Module,
	}.Encode())
	out, err := next(ctx, routed)
	if err != nil {
		if isTransportError(err) || isUnknownBinding(err) {
			m.dropBinding(endpoint)
		}
		return nil, err
	}
	return out, nil
}

// Deliver implements qos.DeliveryMediator.
func (m *Mediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	m.mu.Lock()
	m.stats.Invocations++
	strategy := m.strategy
	m.mu.Unlock()
	if strategy == StrategyFailover {
		return m.deliverFailover(ctx, inv, next)
	}
	return m.deliverActive(ctx, inv, next)
}

// deliverFailover tries replicas in order until one answers.
func (m *Mediator) deliverFailover(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	var lastErr error
	for _, ep := range m.engaged() {
		out, err := m.sendTo(ctx, inv, ep, next)
		if err != nil {
			if isTransportError(err) || isUnknownBinding(err) {
				m.mu.Lock()
				m.stats.MaskedFailures++
				m.stats.FanOut++
				m.mu.Unlock()
				lastErr = err
				continue
			}
			return nil, err
		}
		m.mu.Lock()
		m.stats.FanOut++
		m.mu.Unlock()
		return out, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, orb.NewSystemException(orb.ExcTransient, 110, "no replicas engaged")
}

// replicaReply pairs a replica's outcome with its endpoint.
type replicaReply struct {
	endpoint string
	outcome  *orb.Outcome
	err      error
}

// dispatchTo fires one tagged invocation at one replica asynchronously:
// the request is on the wire when dispatchTo returns, and the returned
// future resolves when that replica answers. It is sendTo split at the
// rendezvous, so the active strategy can put every replica's request on
// its connection back-to-back before waiting for any reply.
//
// The dispatch goes through ORB.InvokeAsync rather than the mediator's
// `next` continuation. That is deliberately equivalent, not a shortcut:
// the stub hands mediators exactly orb.Invoke as next (see
// qos.Stub.mediate), so there is no delivery stage between mediator and
// transport to bypass, and per-call observation (metrics, SLO) happens
// in the stub bracket around Deliver — per logical call, never per
// replica — for failover and active alike. If a stage is ever layered
// between mediator and ORB, this dispatch must be routed through it.
func (m *Mediator) dispatchTo(ctx context.Context, inv *orb.Invocation, endpoint string) (*orb.Future, error) {
	binding, err := m.ensureBinding(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	target, err := endpointTarget(m.stub.Target(), endpoint)
	if err != nil {
		return nil, err
	}
	routed := inv.Clone()
	routed.Target = target
	routed.Contexts = routed.Contexts.With(giop.SCQoS, qos.QoSTag{
		Characteristic: binding.Characteristic,
		BindingID:      binding.ID,
		Module:         binding.Module,
	}.Encode())
	return m.stub.ORB().InvokeAsync(ctx, routed)
}

// deliverActive writes to all engaged replicas as parallel asynchronous
// sends and collects the quorum: the group's latency is the slowest
// engaged replica (max-of-k) instead of the old goroutine-per-replica
// scatter's scheduling cost on top of it. Failures are masked while at
// least one replica succeeds; with voting enabled the reply must be
// backed by a majority of the engaged replicas.
func (m *Mediator) deliverActive(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	engaged := m.engaged()
	if len(engaged) == 0 {
		return nil, orb.NewSystemException(orb.ExcTransient, 111, "replica group is empty")
	}
	// Dispatch puts every replica's request on its connection back to
	// back — the encode+write cost per replica is a couple of
	// microseconds, so the sends stay inline (a goroutine per dispatch
	// costs more than it overlaps) — and the replies are then collected
	// concurrently through the futures: the group's latency is the
	// slowest replica's round trip (max-of-k), not their sum.
	futs := make([]*orb.Future, len(engaged))
	collected := make([]replicaReply, len(engaged))
	for i, ep := range engaged {
		collected[i].endpoint = ep
		fut, err := m.dispatchTo(ctx, inv, ep)
		if err != nil {
			if isTransportError(err) || isUnknownBinding(err) {
				m.dropBinding(ep)
			}
			collected[i].err = err
			continue
		}
		futs[i] = fut
	}
	for i := range collected {
		fut := futs[i]
		if fut == nil {
			continue
		}
		out, err := fut.Wait(ctx)
		if err != nil && (isTransportError(err) || isUnknownBinding(err)) {
			m.dropBinding(collected[i].endpoint)
		}
		collected[i].outcome = out
		collected[i].err = err
	}

	m.mu.Lock()
	m.stats.FanOut += uint64(len(engaged))
	voting := m.voting
	m.mu.Unlock()

	var successes []replicaReply
	var failures int
	var lastErr error
	for _, r := range collected {
		if r.err != nil {
			failures++
			lastErr = r.err
			continue
		}
		successes = append(successes, r)
	}
	m.mu.Lock()
	m.stats.MaskedFailures += uint64(failures)
	m.mu.Unlock()

	if len(successes) == 0 {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, orb.NewSystemException(orb.ExcTransient, 112, "all replicas failed")
	}
	if !voting {
		return successes[0].outcome, nil
	}

	// Majority vote over the reply body bytes of the engaged set.
	m.mu.Lock()
	m.stats.VoteRounds++
	m.mu.Unlock()
	counts := make(map[string][]replicaReply)
	for _, r := range successes {
		key := string(r.outcome.Data) + "\x00" + r.outcome.Status.String()
		counts[key] = append(counts[key], r)
	}
	need := len(engaged)/2 + 1
	for _, group := range counts {
		if len(group) >= need {
			return group[0].outcome, nil
		}
	}
	m.mu.Lock()
	m.stats.VoteDisagreements++
	m.mu.Unlock()
	return nil, orb.NewSystemException(orb.ExcBadQoS, 113,
		"no majority among %d replies of %d replicas", len(successes), len(engaged))
}
