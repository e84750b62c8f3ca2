package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"maqs"
	"maqs/internal/characteristics/actuality"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// stallServant stalls its stallAt-th request for stall.
type stallServant struct {
	inner   orb.Servant
	n       atomic.Int32
	stallAt int32
	stall   time.Duration
}

func (s *stallServant) Invoke(req *orb.ServerRequest) error {
	if s.n.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return s.inner.Invoke(req)
}

// corruptServant flips the last byte of every echo reply.
type corruptServant struct{ inner orb.Servant }

func (s corruptServant) Invoke(req *orb.ServerRequest) error {
	if err := s.inner.Invoke(req); err != nil {
		return err
	}
	if req.Operation == opEcho {
		b := req.Out.Bytes()
		b[len(b)-1] ^= 0xff
	}
	return nil
}

// forgetfulServant acknowledges document writes without storing them.
type forgetfulServant struct{ inner orb.Servant }

func (s forgetfulServant) Invoke(req *orb.ServerRequest) error {
	if req.Operation == opPut {
		return nil
	}
	return s.inner.Invoke(req)
}

// echoEnv builds a one-lane echo env around servant.
func echoEnv(t *testing.T, srv server, clientOpts maqs.Options) *env {
	t.Helper()
	e := &env{conns: &connCounts{}}
	t.Cleanup(e.close)
	ref, err := e.startServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	client, err := e.newClient(clientOpts)
	if err != nil {
		t.Fatal(err)
	}
	e.lanes = []*lane{{stub: client.Stub(ref), order: client.ORB.Order(),
		bodies: bodies(1, 0, payloadRandom, echoSize, bodiesPerLane), rate: 1}}
	return e
}

// TestLatencyCountsFromIntendedSendTime stalls the server on one request
// while the client can have only one request in flight, so the generator
// itself is held back. Every request due during the stall must report
// its latency from its intended send time, wait included.
func TestLatencyCountsFromIntendedSendTime(t *testing.T) {
	const (
		gap   = 2 * time.Millisecond
		n     = 20
		stall = 60 * time.Millisecond
	)
	e := echoEnv(t,
		server{opts: maqs.Options{DispatchWorkers: 1, DispatchQueueDepth: 64},
			servant: &stallServant{inner: &docServant{docs: map[uint64][]byte{}}, stallAt: 5, stall: stall}},
		maqs.Options{PipelineDepth: 1})
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{at: time.Duration(i) * gap}
	}
	i := 0
	p := e.runOpen(context.Background(), func() (job, bool) {
		if i == n {
			return job{}, false
		}
		i++
		return jobs[i-1], true
	}, true, 0, time.Time{})
	if p.failed != 0 || len(p.lat) != n {
		t.Fatalf("failed %d, %d latencies: %v", p.failed, len(p.lat), p.firstErr)
	}
	// Request 4 (0-based) stalls; it was due at 4·gap and ends no earlier
	// than 4·gap+stall. Requests due before that end waited for it.
	stallEnd := 4*gap + stall
	for k := 4; k < n; k++ {
		due := time.Duration(p.at[k]) * time.Microsecond
		if due >= stallEnd {
			continue
		}
		lat := time.Duration(p.lat[k])
		if want := stallEnd - due - gap; lat < want {
			t.Errorf("request %d due at %v: latency %v, want at least %v", k, due, lat, want)
		}
		if k > 5 && time.Duration(p.lag[k]) < stallEnd-due-5*gap {
			t.Errorf("request %d: send lag %v, the generator should have been held back", k, time.Duration(p.lag[k]))
		}
	}
	if max99, _, _ := windowed(&phase{lat: p.lat, at: make([]int32, n)}, 1); time.Duration(max99) < stall-gap {
		t.Errorf("worst latency %v, want at least the stall %v", time.Duration(max99), stall)
	}
}

// TestPacedSendsNeverEarly paces a schedule whose gaps are mostly
// shorter than a nanosleep's usual overshoot: no request may be sent
// before its intended time.
func TestPacedSendsNeverEarly(t *testing.T) {
	const n = 2000
	e := echoEnv(t, server{servant: &docServant{docs: map[uint64][]byte{}}}, maqs.Options{})
	var at time.Duration
	i := 0
	p := e.runOpen(context.Background(), func() (job, bool) {
		if i == n {
			return job{}, false
		}
		i++
		at += time.Duration(i%13) * 5 * time.Microsecond // 0–60µs gaps
		return job{at: at, body: i % bodiesPerLane}, true
	}, true, 0, time.Time{})
	if p.failed != 0 || len(p.lag) != n {
		t.Fatalf("failed %d, %d lags: %v", p.failed, len(p.lag), p.firstErr)
	}
	if p.early != 0 {
		t.Errorf("%d of %d requests sent before their intended time", p.early, n)
	}
	for k, l := range p.lag {
		if l < 0 {
			t.Fatalf("request %d sent %v early", k, -time.Duration(l))
		}
	}
}

func TestWrongEchoReplyIsCaught(t *testing.T) {
	e := echoEnv(t, server{servant: corruptServant{&docServant{docs: map[uint64][]byte{}}}}, maqs.Options{})
	p := e.runOpen(context.Background(), counted(e.mixJobs(1, streamSaturate), 50), false, 8, time.Now().Add(time.Minute))
	if p.attempted != 50 || p.wrong != 50 || p.failed != 50 {
		t.Fatalf("attempted %d, wrong %d, failed %d; want every reply caught", p.attempted, p.wrong, p.failed)
	}
	res := &result{}
	res.account(&run{saturate: p})
	if res.correct() {
		t.Fatal("a run with wrong replies reported correct")
	}
}

func TestStaleDocumentReadIsCaught(t *testing.T) {
	e := &env{seed: 1, conns: &connCounts{}}
	t.Cleanup(e.close)
	act := actuality.NewImpl(0, time.Minute)
	ref, err := e.startServer(server{
		servant: forgetfulServant{&docServant{docs: map[uint64][]byte{}, act: act}},
		impls:   []qos.Impl{act},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := e.newClient(maqs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.churn = newChurn(1, client, ref, e)
	err = e.churn.warm(context.Background(), 1)
	if !errors.Is(err, errWrongReply) {
		t.Fatalf("warm-up error %v, want a wrong reply", err)
	}
	p, err := e.churn.run(context.Background(), 0, time.Now().Add(50*time.Millisecond))
	if err != nil || p.wrong == 0 || p.failed < p.wrong {
		t.Fatalf("measured run: err %v, wrong %d, failed %d; want stale reads caught", err, p.wrong, p.failed)
	}
}

// TestMetricsMatchBenchmarkJSON checks that an untraced run reports
// exactly the end-to-end metrics BENCHMARK.json declares and a traced run
// exactly its per-layer metrics, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	r := &run{paced: &phase{}, saturate: &phase{elapsed: time.Second}, peaks: &peaks{}, ops: 1}
	e2e := newResult("x", r)
	e2e.endToEnd(r, []float64{0.5})
	layers := newResult("x", r)
	layers.perLayer(&env{}, r, r, nil)
	for _, c := range []struct {
		what string
		want []struct{ Name, Unit string }
		res  *result
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		got := c.res.summary().(summary).Metrics
		if len(got) != len(c.want) {
			t.Errorf("%s: run reports %d metrics, BENCHMARK.json declares %d", c.what, len(got), len(c.want))
		}
		for _, m := range c.want {
			g, ok := got[m.Name]
			if !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s [%s] reported as %+v (present %v)", c.what, m.Name, m.Unit, g, ok)
			}
		}
	}
}
