package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
)

// echoServant answers echo with its argument; an optional per-call delay
// simulates a slow or stalled server.
type echoServant struct {
	delay time.Duration
}

func (s echoServant) Invoke(req *maqs.ServerRequest) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	switch req.Operation {
	case "echo":
		p, err := req.In().ReadOctets()
		if err != nil {
			return err
		}
		req.Out.WriteOctets(p)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 1, "no operation %q", req.Operation)
	}
}

// newLoadWorld builds an in-memory server (optionally QoS-enabled with
// Compression) and returns its reference plus the client transport.
func newLoadWorld(t *testing.T, servant maqs.Servant, withQoS bool) (*ior.IOR, netsim.Transport) {
	t.Helper()
	n := maqs.NewNetwork()
	server, err := maqs.NewSystem(maqs.Options{Transport: n.Host("server")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	if err := server.Listen("server:1"); err != nil {
		t.Fatal(err)
	}
	var ref *ior.IOR
	if withQoS {
		if err := server.LoadModule(compression.ModuleName, nil); err != nil {
			t.Fatal(err)
		}
		skel := maqs.NewServerSkeleton(servant)
		if err := skel.AddQoS(compression.NewImpl(0)); err != nil {
			t.Fatal(err)
		}
		ref, err = server.ActivateQoS("load", "IDL:test/Load:1.0", skel, maqs.QoSInfo{
			Characteristics: []string{maqs.Compression},
			Modules:         []string{compression.ModuleName},
		})
	} else {
		ref, err = server.Activate("load", "IDL:test/Load:1.0", servant)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ref, n.Host("client")
}

func TestRunnerOpenLoopRun(t *testing.T) {
	ref, transport := newLoadWorld(t, echoServant{}, false)
	runner, err := NewRunner(Config{
		Target:    ref,
		Transport: transport,
		Seed:      42,
		Scenarios: []Scenario{
			{
				Class:    "interactive",
				Requests: 400,
				Clients:  32,
				Arrival:  ArrivalSpec{Kind: "poisson", Rate: 4000},
				Payload:  PayloadSpec{Kind: "bimodal", Size: 32, Large: 512, LargeFrac: 0.1},
			},
			{
				Class:    "bulk",
				Requests: 200,
				Clients:  16,
				Arrival:  ArrivalSpec{Kind: "bursty", Rate: 2000},
				Payload:  PayloadSpec{Kind: "pareto", Size: 128, Max: 8 << 10},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %d", len(rep.Classes))
	}
	for _, c := range rep.Classes {
		want := uint64(400)
		if c.Class == "bulk" {
			want = 200
		}
		if c.Scheduled != want || c.Completed != want {
			t.Fatalf("class %s: scheduled %d completed %d, want %d", c.Class, c.Scheduled, c.Completed, want)
		}
		if c.Errors != 0 {
			t.Fatalf("class %s: %d errors (%s)", c.Class, c.Errors, c.ErrKindsString())
		}
		if c.Latency.Count != want || c.Latency.P50Ns <= 0 || c.Latency.P999Ns < c.Latency.P50Ns {
			t.Fatalf("class %s: bad latency summary %+v", c.Class, c.Latency)
		}
		if c.ThroughputRPS <= 0 {
			t.Fatalf("class %s: throughput %g", c.Class, c.ThroughputRPS)
		}
	}
	if rep.TotalCompleted != 600 {
		t.Fatalf("total completed = %d", rep.TotalCompleted)
	}

	doc := rep.BenchDoc()
	names := map[string]bool{}
	for _, r := range doc.Results {
		names[r.Name] = true
	}
	for _, want := range []string{
		"Loadgen/interactive/p50", "Loadgen/interactive/p99", "Loadgen/interactive/p99.9",
		"Loadgen/bulk/throughput", "Loadgen/bulk/errors",
	} {
		if !names[want] {
			t.Fatalf("bench doc missing %s (have %d results)", want, len(doc.Results))
		}
	}
	if doc.Context["seed"] != "42" || doc.Context["git_commit"] == "" {
		t.Fatalf("bench doc context = %v", doc.Context)
	}
}

// TestRunnerSeesQueueingDelay is the end-to-end coordinated-omission
// check: a single client identity against a 5ms-per-call server with a
// 1ms intended interval. A closed-loop measurement would report ~5ms
// everywhere; the open-loop runner must show the schedule backlog in the
// corrected percentiles while the uncorrected service view stays ~5ms.
func TestRunnerSeesQueueingDelay(t *testing.T) {
	ref, transport := newLoadWorld(t, echoServant{delay: 5 * time.Millisecond}, false)
	runner, err := NewRunner(Config{
		Target:    ref,
		Transport: transport,
		Seed:      7,
		Scenarios: []Scenario{{
			Class:    "stalled",
			Requests: 100,
			Clients:  1,
			Arrival:  ArrivalSpec{Kind: "uniform", Rate: 1000},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	if c.Completed != 100 {
		t.Fatalf("completed = %d", c.Completed)
	}
	// Service p50 ≈ 5ms; corrected p99 must carry ~99 requests' worth of
	// backlog (≈400ms). Generous bounds keep the test robust under -race.
	if c.Service.P50Ns > int64(50*time.Millisecond) {
		t.Fatalf("service p50 = %v, expected ~5ms", time.Duration(c.Service.P50Ns))
	}
	if c.Latency.P99Ns < 4*c.Service.P99Ns {
		t.Fatalf("corrected p99 %v not clearly above service p99 %v: queueing delay was omitted",
			time.Duration(c.Latency.P99Ns), time.Duration(c.Service.P99Ns))
	}
	if c.Latency.P50Ns <= c.Service.P50Ns {
		t.Fatalf("corrected p50 %v ≤ service p50 %v under a backlogged schedule",
			time.Duration(c.Latency.P50Ns), time.Duration(c.Service.P50Ns))
	}
}

// TestRunnerNegotiatedClass drives a class through a negotiated
// Compression binding: every identity negotiates its own binding and the
// traffic flows QoS-tagged.
func TestRunnerNegotiatedClass(t *testing.T) {
	ref, transport := newLoadWorld(t, echoServant{}, true)
	var summary strings.Builder
	runner, err := NewRunner(Config{
		Target:       ref,
		Transport:    transport,
		Seed:         3,
		Summary:      &summary,
		SummaryEvery: 50 * time.Millisecond,
		Scenarios: []Scenario{{
			Class:          "gold",
			Requests:       150,
			Clients:        8,
			Arrival:        ArrivalSpec{Kind: "uniform", Rate: 2000},
			Payload:        PayloadSpec{Kind: "fixed", Size: 512},
			Characteristic: maqs.Compression,
			Params:         map[string]float64{"level": 6},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	if c.Completed != 150 || c.Errors != 0 {
		t.Fatalf("completed %d errors %d (%s)", c.Completed, c.Errors, c.ErrKindsString())
	}
	if c.Characteristic != maqs.Compression {
		t.Fatalf("characteristic = %q", c.Characteristic)
	}
	if !strings.Contains(summary.String(), "gold") {
		t.Fatalf("periodic summary missing class line:\n%s", summary.String())
	}
	// Every call is scored once, under the scenario class only — not
	// also under the negotiated characteristic.
	st := runner.classes[0].sys.SLO.Status()
	if len(st.Classes) != 1 || st.Classes[0].Class != "gold" || len(st.Classes[0].Objectives) == 0 {
		t.Fatalf("SLO classes = %+v, want only gold, with objectives", st.Classes)
	}
	const warmup = 8 // setup warms min(Clients, 8) stubs
	for _, o := range st.Classes[0].Objectives {
		if got := o.Good + o.Bad; got != c.Completed+warmup {
			t.Fatalf("objective %s scored %d calls, want %d", o.Objective, got, c.Completed+warmup)
		}
	}
}

func TestRunnerStatusBeforeAndDuringRun(t *testing.T) {
	ref, transport := newLoadWorld(t, echoServant{}, false)
	runner, err := NewRunner(Config{
		Target:    ref,
		Transport: transport,
		Scenarios: []Scenario{{
			Class:    "s",
			Requests: 50,
			Clients:  4,
			Arrival:  ArrivalSpec{Rate: 5000},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if s, ok := runner.Status().(interface{}); !ok || s == nil {
		t.Fatal("status before run must be serialisable")
	}
	if _, err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After the run, Status reports final counts.
	type statusShape struct {
		Running bool
		Classes []struct{ Completed uint64 }
	}
	_ = statusShape{}
}

func TestRunnerConfigValidation(t *testing.T) {
	ref, transport := newLoadWorld(t, echoServant{}, false)
	if _, err := NewRunner(Config{Transport: transport, Scenarios: Preset("smoke")}); err == nil {
		t.Fatal("nil target must be rejected")
	}
	if _, err := NewRunner(Config{Target: ref, Transport: transport}); err == nil {
		t.Fatal("empty scenario list must be rejected")
	}
	if _, err := NewRunner(Config{Target: ref, Transport: transport, Scenarios: []Scenario{
		{Class: "a", Requests: 1, Arrival: ArrivalSpec{Rate: 1}},
		{Class: "a", Requests: 1, Arrival: ArrivalSpec{Rate: 1}},
	}}); err == nil {
		t.Fatal("duplicate class must be rejected")
	}
	if _, err := NewRunner(Config{Target: ref, Transport: transport, Scenarios: []Scenario{
		{Class: "a", Requests: 0, Arrival: ArrivalSpec{Rate: 1}},
	}}); err == nil {
		t.Fatal("zero requests must be rejected")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"smoke", "default"} {
		scns := Preset(name)
		if len(scns) < 2 {
			t.Fatalf("preset %q has %d scenarios, want ≥2 QoS classes", name, len(scns))
		}
		for _, s := range scns {
			if err := s.withDefaults().validate(); err != nil {
				t.Fatalf("preset %q: %v", name, err)
			}
		}
	}
	var total int
	for _, s := range Preset("default") {
		total += s.Requests
	}
	if total < 100000 {
		t.Fatalf("default preset schedules %d requests, acceptance floor is 100000", total)
	}
	if Preset("nope") != nil {
		t.Fatal("unknown preset must return nil")
	}
}

// TestRunnerPipelinedAndBatchedModes drives the same workload through the
// three issue modes on one connection each: all scheduled requests must
// complete error-free, and the report must label each class's mode.
func TestRunnerPipelinedAndBatchedModes(t *testing.T) {
	ref, transport := newLoadWorld(t, echoServant{}, false)
	runner, err := NewRunner(Config{
		Target:    ref,
		Transport: transport,
		Seed:      7,
		Scenarios: []Scenario{
			{
				Class:    "sequential",
				Requests: 200,
				Clients:  1,
				Conns:    1,
				Arrival:  ArrivalSpec{Kind: "uniform", Rate: 20000},
				Payload:  PayloadSpec{Kind: "fixed", Size: 32},
			},
			{
				Class:    "pipelined",
				Requests: 600,
				Clients:  1,
				Conns:    1,
				Mode:     "pipelined",
				Depth:    32,
				Arrival:  ArrivalSpec{Kind: "uniform", Rate: 20000},
				Payload:  PayloadSpec{Kind: "fixed", Size: 32},
			},
			{
				Class:    "batched",
				Requests: 600,
				Clients:  1,
				Conns:    1,
				Mode:     "batched",
				Batch:    16,
				Arrival:  ArrivalSpec{Kind: "uniform", Rate: 20000},
				Payload:  PayloadSpec{Kind: "fixed", Size: 32},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 3 {
		t.Fatalf("classes = %d", len(rep.Classes))
	}
	for _, c := range rep.Classes {
		want := uint64(600)
		mode := c.Class // class names mirror their modes here
		if c.Class == "sequential" {
			want = 200
			mode = "sync"
		}
		if c.Scheduled != want || c.Completed != want {
			t.Fatalf("class %s: scheduled %d completed %d, want %d", c.Class, c.Scheduled, c.Completed, want)
		}
		if c.Errors != 0 {
			t.Fatalf("class %s: %d errors (%s)", c.Class, c.Errors, c.ErrKindsString())
		}
		if c.Mode != mode {
			t.Fatalf("class %s: mode %q, want %q", c.Class, c.Mode, mode)
		}
		if c.Latency.Count != want || c.ThroughputRPS <= 0 {
			t.Fatalf("class %s: latency count %d throughput %g", c.Class, c.Latency.Count, c.ThroughputRPS)
		}
	}
}

// TestScenarioModeValidation rejects unknown modes and negative knobs.
func TestScenarioModeValidation(t *testing.T) {
	base := Scenario{
		Class:    "x",
		Requests: 1,
		Arrival:  ArrivalSpec{Kind: "uniform", Rate: 1},
	}
	bad := base
	bad.Mode = "turbo"
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("mode validation: %v", err)
	}
	neg := base
	neg.Depth = -1
	if err := neg.validate(); err == nil {
		t.Fatal("negative depth accepted")
	}
	ok := base
	ok.Mode = "pipelined"
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
	if d := ok.withDefaults(); d.Depth != 32 {
		t.Fatalf("pipelined default depth = %d", d.Depth)
	}
}
