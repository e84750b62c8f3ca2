package loadbalance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// Name is the characteristic name.
const Name = "LoadBalancing"

// Parameter names.
const (
	// ParamStrategy selects the balancing strategy.
	ParamStrategy = "strategy"
	// ParamWeights holds comma-separated positive weights matching the
	// member order (e.g. "3,1,1,1"); used by the weighted strategy.
	// Missing or malformed entries default to weight 1.
	ParamWeights = "weights"
)

// Strategy names.
const (
	StrategyRoundRobin  = "round-robin"
	StrategyRandom      = "random"
	StrategyLeastLoaded = "least-loaded"
	StrategyWeighted    = "weighted"
)

// QoS operations of the characteristic.
const (
	// OpMembers returns the worker endpoints: out sequence<string>.
	OpMembers = "lb_members"
	// OpLoad returns this worker's load: out (double active, unsigned
	// long long total).
	OpLoad = "lb_load"
)

// scLoad is the reply service context carrying a worker's load report.
const scLoad uint32 = 0x4D515330

// Describe returns the characteristic descriptor.
func Describe() *qos.Characteristic {
	return &qos.Characteristic{
		Name:     Name,
		Category: qos.CategoryPerformance,
		Params: []qos.ParameterDecl{
			{Name: ParamStrategy, Kind: qos.KindString, Default: qos.Text(StrategyRoundRobin)},
		},
		Operations: []string{OpMembers, OpLoad},
	}
}

// Register adds the characteristic with its balancing mediator factory.
func Register(r *qos.Registry) error {
	err := r.Register(Describe(), func(st *qos.Stub, b *qos.Binding) (qos.Mediator, error) {
		return NewMediator(st, b)
	})
	if err != nil {
		return fmt.Errorf("loadbalance: %w", err)
	}
	return nil
}

// Impl is the per-worker server-side implementation: it tracks load and
// answers the membership operations.
type Impl struct {
	qos.BaseImpl

	mu      sync.Mutex
	members []string
	active  int
	total   uint64
}

// NewImpl constructs a worker implementation knowing the cluster members
// (worker endpoints "host:port").
func NewImpl(capacity int, members []string) *Impl {
	impl := &Impl{members: append([]string(nil), members...)}
	impl.Desc = Describe()
	impl.Capability = &qos.Offer{
		Characteristic: Name,
		Capacity:       capacity,
		Params: []qos.ParamOffer{
			{Name: ParamStrategy, Kind: qos.KindString,
				Choices: []string{StrategyRoundRobin, StrategyRandom, StrategyLeastLoaded, StrategyWeighted},
				Default: qos.Text(StrategyRoundRobin)},
			{Name: ParamWeights, Kind: qos.KindString, Default: qos.Text("")},
		},
	}
	return impl
}

// SetMembers replaces the advertised membership.
func (i *Impl) SetMembers(members []string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.members = append([]string(nil), members...)
}

// Load reports the current (active, total) counters.
func (i *Impl) Load() (active int, total uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.active, i.total
}

// Prolog counts the request in.
func (i *Impl) Prolog(req *orb.ServerRequest, b *qos.Binding) error {
	i.mu.Lock()
	i.active++
	i.mu.Unlock()
	return nil
}

// Epilog counts the request out and piggybacks the load report.
func (i *Impl) Epilog(req *orb.ServerRequest, b *qos.Binding, invokeErr error) error {
	i.mu.Lock()
	i.active--
	i.total++
	active, total := i.active, i.total
	i.mu.Unlock()

	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteDouble(float64(active))
	e.WriteULongLong(total)
	req.OutContexts = req.OutContexts.With(scLoad, e.Bytes())
	return nil
}

// QoSOperation answers the characteristic's operations.
func (i *Impl) QoSOperation(req *orb.ServerRequest, b *qos.Binding) error {
	switch req.Operation {
	case OpMembers:
		i.mu.Lock()
		members := append([]string(nil), i.members...)
		i.mu.Unlock()
		req.Out.WriteULong(uint32(len(members)))
		for _, m := range members {
			req.Out.WriteString(m)
		}
		return nil
	case OpLoad:
		active, total := i.Load()
		req.Out.WriteDouble(float64(active))
		req.Out.WriteULongLong(total)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 90, "no QoS op %q", req.Operation)
	}
}

// Mediator is the client-side balancer.
type Mediator struct {
	qos.BaseMediator
	stub *qos.Stub

	mu       sync.Mutex
	strategy string
	members  []string                // endpoints
	loads    map[string]float64      // endpoint → last reported active count
	inflight map[string]int          // endpoint → this mediator's outstanding calls
	sent     map[string]uint64       // endpoint → requests routed there
	bindings map[string]*qos.Binding // endpoint → per-worker binding
	rr       int
	rng      *rand.Rand
	// weighted round-robin state (smooth WRR): static weight and
	// floating current score per endpoint.
	weights map[string]int
	current map[string]int
}

var (
	_ qos.DeliveryMediator = (*Mediator)(nil)
	_ qos.AdaptiveMediator = (*Mediator)(nil)
)

// NewMediator builds the balancing mediator: membership comes from the
// cluster reference's ordered-endpoints component.
func NewMediator(st *qos.Stub, b *qos.Binding) (*Mediator, error) {
	endpoints, err := st.Target().AlternateEndpoints()
	if err != nil {
		return nil, fmt.Errorf("loadbalance: reading endpoints: %w", err)
	}
	if len(endpoints) == 0 {
		endpoints = []string{st.Target().Profile.Addr()}
	}
	m := &Mediator{
		BaseMediator: qos.BaseMediator{Char: Name},
		stub:         st,
		members:      endpoints,
		loads:        make(map[string]float64),
		inflight:     make(map[string]int),
		sent:         make(map[string]uint64),
		bindings:     make(map[string]*qos.Binding),
		rng:          rand.New(rand.NewSource(42)),
	}
	m.strategy = b.Contract.Text(ParamStrategy, StrategyRoundRobin)
	m.setWeights(b.Contract.Text(ParamWeights, ""))
	// The binding handed to the factory was negotiated with the cluster
	// reference's profile endpoint; further workers get their own
	// bindings on first use.
	m.bindings[st.Target().Profile.Addr()] = b
	return m, nil
}

// ensureBinding returns the per-worker binding for an endpoint,
// negotiating one (with the already agreed contract as the proposal) on
// first contact. A logical client/server relationship that spans several
// servers needs one agreement per server — there is no system-wide QoS
// state to share (paper §3, QoS adaptation).
func (m *Mediator) ensureBinding(ctx context.Context, endpoint string, target *ior.IOR) (*qos.Binding, error) {
	m.mu.Lock()
	b, ok := m.bindings[endpoint]
	contract := m.contractTemplate()
	m.mu.Unlock()
	if ok {
		return b, nil
	}
	nb, err := qos.NegotiateRaw(ctx, m.stub.ORB(), target, qos.ProposalFromContract(contract))
	if err != nil {
		return nil, fmt.Errorf("loadbalance: binding worker %s: %w", endpoint, err)
	}
	m.mu.Lock()
	m.bindings[endpoint] = nb
	m.mu.Unlock()
	return nb, nil
}

// contractTemplate returns any live contract to clone proposals from.
// Callers hold m.mu.
func (m *Mediator) contractTemplate() *qos.Contract {
	for _, b := range m.bindings {
		return b.Contract
	}
	return &qos.Contract{Characteristic: Name, Values: map[string]qos.Value{
		ParamStrategy: qos.Text(m.strategy),
	}}
}

// dropBinding forgets a worker's binding (it crashed or restarted).
func (m *Mediator) dropBinding(endpoint string) {
	m.mu.Lock()
	delete(m.bindings, endpoint)
	m.mu.Unlock()
}

// ContractChanged implements qos.AdaptiveMediator.
func (m *Mediator) ContractChanged(c *qos.Contract) error {
	m.mu.Lock()
	m.strategy = c.Text(ParamStrategy, StrategyRoundRobin)
	m.mu.Unlock()
	m.setWeights(c.Text(ParamWeights, ""))
	return nil
}

// setWeights parses the comma-separated weight list against the member
// order; invalid or missing entries weigh 1.
func (m *Mediator) setWeights(spec string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.weights = make(map[string]int, len(m.members))
	m.current = make(map[string]int, len(m.members))
	parts := strings.Split(spec, ",")
	for i, ep := range m.members {
		w := 1
		if i < len(parts) {
			if v, err := strconv.Atoi(strings.TrimSpace(parts[i])); err == nil && v > 0 {
				w = v
			}
		}
		m.weights[ep] = w
	}
}

// Members returns the current membership.
func (m *Mediator) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...)
}

// Distribution reports how many requests were routed to each endpoint.
func (m *Mediator) Distribution() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.sent))
	for k, v := range m.sent {
		out[k] = v
	}
	return out
}

// pick selects the next endpoint, excluding the given dead set.
func (m *Mediator) pick(dead map[string]bool) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := make([]string, 0, len(m.members))
	for _, ep := range m.members {
		if !dead[ep] {
			alive = append(alive, ep)
		}
	}
	if len(alive) == 0 {
		return "", errors.New("loadbalance: no live members")
	}
	var ep string
	switch m.strategy {
	case StrategyRandom:
		ep = alive[m.rng.Intn(len(alive))]
	case StrategyLeastLoaded:
		// A worker's load is its last reported active count plus the
		// calls this mediator has outstanding there: reports ride on
		// replies, so a slow worker's backlog shows up locally long
		// before its report does. Scan from a rotating offset so equally
		// loaded workers share traffic instead of the first always
		// winning ties.
		start := m.rr % len(alive)
		m.rr++
		ep = alive[start]
		best := m.loadOf(ep)
		for k := 1; k < len(alive); k++ {
			cand := alive[(start+k)%len(alive)]
			if l := m.loadOf(cand); l < best {
				best, ep = l, cand
			}
		}
	case StrategyWeighted:
		// Smooth weighted round-robin: raise each candidate's current
		// score by its weight, pick the highest, then charge the pick
		// the total weight.
		total := 0
		best := math.MinInt
		for _, cand := range alive {
			w := m.weights[cand]
			if w <= 0 {
				w = 1
			}
			total += w
			m.current[cand] += w
			if m.current[cand] > best {
				best, ep = m.current[cand], cand
			}
		}
		m.current[ep] -= total
	default: // round-robin
		ep = alive[m.rr%len(alive)]
		m.rr++
	}
	m.sent[ep]++
	return ep, nil
}

// loadOf is the least-loaded ranking of an endpoint. Callers hold m.mu.
func (m *Mediator) loadOf(ep string) float64 {
	return m.loads[ep] + float64(m.inflight[ep])
}

// track shifts this mediator's outstanding-call count for an endpoint.
func (m *Mediator) track(ep string, delta int) {
	m.mu.Lock()
	m.inflight[ep] += delta
	m.mu.Unlock()
}

// targetFor clones the cluster reference onto a worker endpoint.
func (m *Mediator) targetFor(endpoint string) (*ior.IOR, error) {
	host, portStr, err := net.SplitHostPort(endpoint)
	if err != nil {
		return nil, fmt.Errorf("loadbalance: bad endpoint %q: %w", endpoint, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("loadbalance: bad port in %q: %w", endpoint, err)
	}
	ref := m.stub.Target().Clone()
	ref.Profile.Host = host
	ref.Profile.Port = uint16(port)
	return ref, nil
}

// Deliver implements qos.DeliveryMediator: route to the chosen worker,
// fail over to the next on transport errors, and absorb load reports.
func (m *Mediator) Deliver(ctx context.Context, inv *orb.Invocation, next qos.Next) (*orb.Outcome, error) {
	dead := make(map[string]bool)
	attempts := len(m.Members())
	var lastErr error
	for try := 0; try < attempts; try++ {
		ep, err := m.pick(dead)
		if err != nil {
			break
		}
		target, err := m.targetFor(ep)
		if err != nil {
			return nil, err
		}
		binding, err := m.ensureBinding(ctx, ep, target)
		if err != nil {
			dead[ep] = true
			lastErr = err
			continue
		}
		routed := inv.Clone()
		routed.Target = target
		routed.Contexts = routed.Contexts.With(giop.SCQoS, qos.QoSTag{
			Characteristic: binding.Characteristic,
			BindingID:      binding.ID,
			Module:         binding.Module,
		}.Encode())
		m.track(ep, 1)
		out, err := next(ctx, routed)
		m.track(ep, -1)
		if err != nil {
			if isTransportError(err) {
				dead[ep] = true
				m.dropBinding(ep)
				lastErr = err
				continue
			}
			if isUnknownBinding(err) {
				// The worker restarted and lost the binding; negotiate
				// afresh on the next attempt against the same endpoint.
				m.dropBinding(ep)
				lastErr = err
				continue
			}
			return nil, err
		}
		m.noteLoad(ep, out.Contexts)
		return out, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, orb.NewSystemException(orb.ExcTransient, 91, "no live workers")
}

func (m *Mediator) noteLoad(endpoint string, contexts giop.ServiceContextList) {
	data, ok := contexts.Get(scLoad)
	if !ok {
		return
	}
	d := cdr.NewDecoder(data, cdr.BigEndian)
	active, err := d.ReadDouble()
	if err != nil {
		return
	}
	m.mu.Lock()
	m.loads[endpoint] = active
	m.mu.Unlock()
}

func isTransportError(err error) bool {
	var sys *orb.SystemException
	if !errors.As(err, &sys) {
		return false
	}
	return sys.Name == orb.ExcCommFailure || sys.Name == orb.ExcTransient || sys.Name == orb.ExcTimeout
}

func isUnknownBinding(err error) bool {
	var sys *orb.SystemException
	return errors.As(err, &sys) && sys.Name == orb.ExcBadQoS
}
