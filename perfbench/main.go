// Command perfbench is the MAQS benchmark: it runs one named workload
// against an in-process MAQS server and client over loopback TCP and
// prints every metric by name, with its unit and sample count.
//
//	perfbench --workload echo-plain --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the untraced run and reports the end-to-end metrics;
// --trace 1 adds a traced run (the benchmark's decorators around every
// layer) and reports the per-layer metrics. The human-readable report
// goes to standard error; the last line of standard output is one JSON
// object with the metrics. The exit status is 1 when any op failed or a
// reply was wrong. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: echo-plain, multi-qos or contract-churn")
	seed := flag.Uint64("seed", 1, "workload seed: arrival times, payload sizes and payload bytes")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	spansDir := flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	setup, ok := setups[*workload]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %v --seed N --seconds N --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs())
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d, %ds, trace %d: in-process MAQS server and client over loopback TCP (127.0.0.1, not a real link), GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	b := &bench{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, setup: setup}
	var res *result
	var err error
	if *trace == 0 {
		res, err = b.untraced()
	} else {
		res, err = b.traced(*spansDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stderr)
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(setups))
	for n := range setups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one invocation: a workload, its seed and the measured time.
type bench struct {
	workload string
	seed     uint64
	dur      time.Duration
	setup    func(context.Context, uint64, *recorder) (*env, error)
}

// run is what one measurement of an env observed.
type run struct {
	paced, saturate, closed *phase // open-loop phases, or the closed loop
	delta                   counters
	ops                     uint64 // successful ops over the measured phases
	peaks                   *peaks
	// traceFrom and traceTo bound the op numbers whose spans the traced
	// run analyses: the paced phase (a layer's self time under a
	// saturated window is mostly waiting) or the whole closed loop.
	traceFrom, traceTo uint64
}

// measure runs the measured phases on a ready env: for open-loop
// workloads a paced phase then a saturate phase, half the time each; for
// the closed loop the whole time.
func (b *bench) measure(ctx context.Context, e *env, d time.Duration) (*run, error) {
	r := &run{}
	if e.rec != nil {
		r.peaks = startPeaks()
	}
	before := e.snapshot()
	r.traceFrom = opSeq.Load() + 1
	if e.rec != nil {
		e.rec.limit.Store(r.traceFrom + maxTracedOps - 1)
	}
	if e.churn != nil {
		p, err := e.churn.run(ctx, 0, time.Now().Add(d))
		if err != nil {
			return nil, err
		}
		r.closed = p
		r.traceTo = opSeq.Load()
	} else {
		r.paced = e.runOpen(ctx, e.pacedJobs(b.seed, d/2), true, 0, time.Time{})
		r.traceTo = opSeq.Load()
		r.saturate = e.runOpen(ctx, e.mixJobs(b.seed, streamSaturate), false, saturateWindow, time.Now().Add(d/2))
	}
	r.delta = e.snapshot().sub(before)
	if r.peaks != nil {
		r.peaks.end()
	}
	for _, p := range r.phases() {
		r.ops += p.attempted - p.failed
	}
	return r, nil
}

func (r *run) phases() []*phase {
	var ps []*phase
	for _, p := range []*phase{r.paced, r.saturate, r.closed} {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// cpuPerOp is process CPU per successful op, in µs.
func (r *run) cpuPerOp() float64 {
	return ratio(float64(r.delta.cpu.Microseconds()), float64(r.ops))
}

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupRuns = 7

// untraced sets the workload up setupRuns times, measures on the last
// set-up and reports the end-to-end metrics.
func (b *bench) untraced() (*result, error) {
	ctx := context.Background()
	var times []float64
	var e *env
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = b.setup(ctx, b.seed, nil)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer e.close()
	r, err := b.measure(ctx, e, b.dur)
	if err != nil {
		return nil, err
	}
	res := newResult(b.workload, r)
	res.endToEnd(r, times)
	return res, nil
}

// traced first measures an untraced set-up for half the time (the
// baseline of the tracing overhead), then a traced set-up for the other
// half, and reports the per-layer metrics of the traced one.
func (b *bench) traced(spansDir string) (*result, error) {
	ctx := context.Background()
	base, err := b.setup(ctx, b.seed, nil)
	if err != nil {
		base.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	br, err := b.measure(ctx, base, b.dur/2)
	base.close()
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	e, err := b.setup(ctx, b.seed, rec)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer e.close()
	r, err := b.measure(ctx, e, b.dur/2)
	if err != nil {
		return nil, err
	}
	var spans []span
	for _, s := range rec.snapshot() {
		if s.op >= r.traceFrom && s.op <= min(r.traceTo, r.traceFrom+maxTracedOps-1) {
			spans = append(spans, s)
		}
	}
	traces := analyse(spans)
	res := newResult(b.workload, r)
	res.account(br)
	res.perLayer(e, r, br, traces)
	if spansDir != "" {
		path := filepath.Join(spansDir, "spans-"+b.workload+".csv")
		err := os.MkdirAll(spansDir, 0o755)
		if err == nil {
			err = writeSpans(path, traces)
		}
		if err != nil {
			res.notes = append(res.notes, fmt.Sprintf("writing spans: %v", err))
		} else {
			res.notes = append(res.notes, fmt.Sprintf("spans of %d ops written to %s", len(traces), path))
		}
	}
	return res, nil
}
