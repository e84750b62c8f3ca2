package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/characteristics/actuality"
	"maqs/internal/qos"
)

// The contract-churn workload: a closed loop of identities, each repeating
// one Actuality session on a connection they share:
//
//	negotiate → reads → write → reads → renegotiate → reads → write → release
//
// Reads are cacheable (get_document); a write (put_document) makes the
// servant invalidate the characteristic's data version, and the writer
// then flushes its own cache, so every later read must return that write.

const (
	churnIdentities = 2
	churnDocs       = 3  // documents per identity
	churnReads      = 20 // mean reads per read run (16..24)
)

// Op kinds of the churn session.
const (
	kindRead = iota
	kindWrite
	kindNegotiate
	kindRenegotiate
	kindRelease
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "negotiate", "renegotiate", "release"}

// identity is one closed-loop client of the churn workload.
type identity struct {
	stub   *qos.Stub
	rng    *rand.Rand
	keys   [churnDocs]uint64
	expect [churnDocs][]byte // last acknowledged write per document
	seq    uint64
	cache  *actuality.Mediator // the current binding's mediator
	// cur is the op in flight, how server-side spans find their op.
	cur atomic.Uint64

	res     phase
	kindLat [numKinds][]int32 // control-plane ops only
	// sampler keeps a uniform sample of at most maxSamples op latencies
	// (reservoir sampling), so the harness's memory does not grow with
	// the op rate; it has its own stream so it never shifts the inputs.
	sampler  *rand.Rand
	hits     uint64
	misses   uint64
	measured bool
}

type churn struct {
	start time.Time    // of the current run
	rates *rateSampler // of the current measured run
	e     *env
	ids   []*identity
	order cdr.ByteOrder
}

func newChurn(seed uint64, client *maqs.System, ref *maqs.IOR, e *env) *churn {
	c := &churn{e: e, order: client.ORB.Order()}
	for i := 0; i < churnIdentities; i++ {
		id := &identity{stub: client.Stub(ref), rng: laneRNG(seed, streamChurn, i),
			sampler: laneRNG(seed, streamReservoir, i)}
		for d := range id.keys {
			id.keys[d] = uint64(i)<<32 | uint64(d)
		}
		c.ids = append(c.ids, id)
	}
	return c
}

// maxSamples bounds the latency samples one identity keeps per run.
const maxSamples = 1 << 17

// sample records one op's latency and start time, replacing a random
// earlier sample once maxSamples are kept.
func (id *identity) sample(lat, at int32) {
	n := int(id.res.attempted)
	if len(id.res.lat) < maxSamples {
		id.res.lat = append(id.res.lat, lat)
		id.res.at = append(id.res.at, at)
		return
	}
	if i := id.sampler.IntN(n); i < maxSamples {
		id.res.lat[i], id.res.at[i] = lat, at
	}
}

// currentOp resolves a payload link id (identity<<32 | document) to the
// op its identity has in flight.
func (c *churn) currentOp(link uint64) uint64 {
	i := int(link >> 32)
	if i >= len(c.ids) {
		return 0
	}
	return c.ids[i].cur.Load()
}

// octets marshals p as a CDR octet sequence, timed as cdr work.
func (c *churn) octets(ctx context.Context, p []byte) []byte {
	_, cs, traced := startClient(ctx, spanCDREncode)
	e := cdr.NewEncoder(c.order)
	e.WriteOctets(p)
	if traced {
		cs.end()
	}
	return e.Bytes()
}

// do runs one op of an identity: numbers it, opens its root span, times
// it, and accounts the outcome.
func (c *churn) do(ctx context.Context, id *identity, kind int, f func(context.Context) error) error {
	op := opSeq.Add(1)
	id.cur.Store(op)
	rec := c.e.rec
	var root uint32
	var rootStart int64
	if rec != nil {
		root = rec.nextID.Add(1)
		rootStart = rec.now()
		ctx = withSpan(ctx, rec, op, root)
	}
	t0 := time.Now()
	err := f(ctx)
	d := clampNs(time.Since(t0))
	if err == nil && c.rates != nil {
		c.rates.done.Add(1)
	}
	if rec != nil {
		rec.add(span{op: op, id: root, name: spanOp, start: rootStart, end: rec.now()})
	}
	id.res.attempted++
	id.sample(d, int32(t0.Sub(c.start).Microseconds()))
	if kind >= kindNegotiate {
		id.kindLat[kind] = append(id.kindLat[kind], d)
	}
	if err != nil {
		id.res.failed++
		if err == errWrongReply {
			id.res.wrong++
		}
		if id.res.firstErr == nil {
			id.res.firstErr = fmt.Errorf("%s: %w", kindNames[kind], err)
		}
	}
	return err
}

func (c *churn) read(ctx context.Context, id *identity) error {
	d := id.rng.IntN(churnDocs)
	return c.do(ctx, id, kindRead, func(ctx context.Context) error {
		var key [linkBytes]byte
		binary.BigEndian.PutUint64(key[:], id.keys[d])
		dec, err := id.stub.Call(ctx, opGet, c.octets(ctx, key[:]))
		if err != nil {
			return err
		}
		_, cs, traced := startClient(ctx, spanCDRDecode)
		got, err := dec.ReadOctets()
		if traced {
			cs.end()
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(got, id.expect[d]) {
			return errWrongReply
		}
		return nil
	})
}

func (c *churn) write(ctx context.Context, id *identity, d int) error {
	id.seq++
	doc := make([]byte, 8, 8+512)
	binary.BigEndian.PutUint64(doc, id.seq)
	doc = append(doc, textBody(id.rng, 128+id.rng.IntN(385))...)
	p := make([]byte, linkBytes, linkBytes+len(doc))
	binary.BigEndian.PutUint64(p, id.keys[d])
	p = append(p, doc...)
	return c.do(ctx, id, kindWrite, func(ctx context.Context) error {
		if _, err := id.stub.Call(ctx, opPut, c.octets(ctx, p)); err != nil {
			return err
		}
		id.expect[d] = doc
		if id.cache != nil {
			// The write is acknowledged: drop this identity's cached
			// reads, so from here on it must read what it wrote.
			id.cache.Flush()
		}
		return nil
	})
}

// maxAge draws a contract's max_age_ms; every value outlives a session.
func maxAge(rng *rand.Rand) float64 { return float64(20_000 + 1000*rng.IntN(30)) }

func (c *churn) negotiate(ctx context.Context, id *identity) error {
	p := &qos.Proposal{Characteristic: maqs.Actuality, Params: []qos.ParamProposal{
		{Name: actuality.ParamMaxAgeMS, Desired: qos.Number(maxAge(id.rng))},
		{Name: actuality.ParamScope, Desired: qos.Text(actuality.ScopeReads)},
	}}
	return c.do(ctx, id, kindNegotiate, func(ctx context.Context) error {
		if _, err := id.stub.Negotiate(ctx, p); err != nil {
			return err
		}
		m, ok := id.stub.Mediator().(*actuality.Mediator)
		if !ok {
			return fmt.Errorf("binding without an actuality mediator")
		}
		id.cache = m
		c.e.decorateMediator(id.stub)
		return nil
	})
}

func (c *churn) renegotiate(ctx context.Context, id *identity) error {
	p := &qos.Proposal{Characteristic: maqs.Actuality, Params: []qos.ParamProposal{
		{Name: actuality.ParamMaxAgeMS, Desired: qos.Number(maxAge(id.rng))},
		{Name: actuality.ParamScope, Desired: qos.Text(actuality.ScopeReads)},
	}}
	return c.do(ctx, id, kindRenegotiate, func(ctx context.Context) error {
		_, err := id.stub.Renegotiate(ctx, p)
		return err
	})
}

func (c *churn) release(ctx context.Context, id *identity) error {
	if id.measured && id.cache != nil {
		s := id.cache.Stats()
		id.hits += s.Hits
		id.misses += s.Misses
	}
	return c.do(ctx, id, kindRelease, func(ctx context.Context) error {
		return id.stub.Release(ctx)
	})
}

func (c *churn) reads(ctx context.Context, id *identity) error {
	n := churnReads - 4 + id.rng.IntN(9)
	for i := 0; i < n; i++ {
		if err := c.read(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

// session runs one full Actuality session of an identity.
func (c *churn) session(ctx context.Context, id *identity) error {
	steps := []func() error{
		func() error { return c.negotiate(ctx, id) },
		func() error { return c.reads(ctx, id) },
		func() error { return c.write(ctx, id, id.rng.IntN(churnDocs)) },
		func() error { return c.reads(ctx, id) },
		func() error { return c.renegotiate(ctx, id) },
		func() error { return c.reads(ctx, id) },
		func() error { return c.write(ctx, id, id.rng.IntN(churnDocs)) },
		func() error { return c.release(ctx, id) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			if id.stub.Binding() != nil {
				// Best effort: the step's error is the one reported, and
				// the next session negotiates a fresh binding anyway.
				_ = id.stub.Release(ctx)
			}
			return err
		}
	}
	return nil
}

// reset clears an identity's accounting (after set-up and warm-up).
func (id *identity) reset() {
	id.res = phase{}
	id.kindLat = [numKinds][]int32{}
	id.hits, id.misses = 0, 0
}

// warm writes every document once, so the server holds known contents,
// then runs rounds sessions per identity.
func (c *churn) warm(ctx context.Context, rounds int) error {
	for _, id := range c.ids {
		for d := range id.keys {
			if err := c.write(ctx, id, d); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if _, err := c.run(ctx, rounds, time.Time{}); err != nil {
		return err
	}
	for _, id := range c.ids {
		id.reset()
	}
	if c.e.rec != nil {
		c.e.rec.reset()
	}
	return nil
}

// run drives every identity on its own goroutine: sessions repeat until
// the deadline has passed (or, with a zero deadline, rounds times). It
// returns the merged phase; set-up runs fail on the first error.
func (c *churn) run(ctx context.Context, rounds int, deadline time.Time) (*phase, error) {
	measured := !deadline.IsZero()
	start := time.Now()
	c.start = start
	if measured {
		c.rates = startRates()
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.ids))
	for i, id := range c.ids {
		id.measured = measured
		wg.Add(1)
		go func(i int, id *identity) {
			defer wg.Done()
			for r := 0; measured || r < rounds; r++ {
				if measured && time.Now().After(deadline) {
					return
				}
				if err := c.session(ctx, id); err != nil {
					errs[i] = err
					if !measured {
						return
					}
				}
			}
		}(i, id)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	if c.rates != nil {
		out.rates = c.rates.end()
		c.rates = nil
	}
	for _, id := range c.ids {
		out.merge(&id.res)
	}
	if !measured {
		for _, err := range errs {
			if err != nil {
				return out, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return out, nil
}
