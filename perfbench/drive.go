package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/orb"
)

// phase holds what one measured phase observed.
type phase struct {
	// Per-op samples of the paced phase or the closed loop (the saturate
	// phase keeps none): latency in ns (completion minus intended send
	// time), intended send time in µs from the phase start, and send lag
	// in ns (actual minus intended send time, signed).
	lat, at, lag []int32
	early        uint64 // paced sends before their intended time
	attempted    uint64
	failed       uint64 // exceptions, timeouts, wrong replies
	wrong        uint64 // replies that did not match the request
	elapsed      time.Duration
	firstErr     error
	// rates are successful ops per second in consecutive rateWindow
	// windows of the phase (saturate phase and closed loop only).
	rates []float64
}

// rateWindow is the window of the throughput samples.
const rateWindow = 100 * time.Millisecond

// rateSampler counts successful ops and samples the count every
// rateWindow, so throughput can be reported as a median over windows.
type rateSampler struct {
	done  atomic.Uint64
	stop  chan struct{}
	wg    sync.WaitGroup
	rates []float64
}

func startRates() *rateSampler {
	s := &rateSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rateWindow)
		defer t.Stop()
		last, lastAt := uint64(0), time.Now()
		for {
			select {
			case now := <-t.C:
				n := s.done.Load()
				s.rates = append(s.rates, float64(n-last)/now.Sub(lastAt).Seconds())
				last, lastAt = n, now
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// end stops sampling and returns the per-window rates.
func (s *rateSampler) end() []float64 {
	close(s.stop)
	s.wg.Wait()
	return s.rates
}

func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.at = append(p.at, o.at...)
	p.lag = append(p.lag, o.lag...)
	p.early += o.early
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong += o.wrong
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// opSeq numbers ops process-wide; an op's number is its link id in
// open-loop payloads.
var opSeq atomic.Uint64

// inflight is one dispatched open-loop request awaiting its reply.
type inflight struct {
	fut       *orb.Future
	args      []byte
	op        uint64
	root      uint32
	rootStart int64
	intended  time.Time
	sent      time.Time
	ctx       context.Context
}

// encodeEcho marshals one echo request: the lane body as a CDR octet
// sequence with the op number stamped over its first linkBytes.
func encodeEcho(ctx context.Context, order cdr.ByteOrder, body []byte, op uint64) []byte {
	_, cs, traced := startClient(ctx, spanCDREncode)
	e := cdr.NewEncoder(order)
	e.WriteOctets(body)
	args := e.Bytes()
	binary.BigEndian.PutUint64(args[4:4+linkBytes], op)
	if traced {
		cs.end()
	}
	return args
}

// dispatch sends one echo request on a lane.
func (e *env) dispatch(ctx context.Context, l *lane, body []byte, intended time.Time) (inflight, error) {
	op := opSeq.Add(1)
	in := inflight{op: op, intended: intended, ctx: ctx}
	if e.rec != nil {
		in.root = e.rec.nextID.Add(1)
		in.rootStart = e.rec.now()
		in.ctx = withSpan(ctx, e.rec, op, in.root)
	}
	in.args = encodeEcho(in.ctx, l.order, body, op)
	in.sent = time.Now()
	fut, err := l.stub.CallAsync(in.ctx, opEcho, in.args)
	in.fut = fut
	return in, err
}

// complete waits for a request's reply and checks that the echo returned
// exactly the request bytes. It reports the failure, if any.
func (e *env) complete(ctx context.Context, in inflight) error {
	out, err := in.fut.Wait(ctx)
	if err == nil {
		err = out.Err()
	}
	if err == nil {
		_, cs, traced := startClient(in.ctx, spanCDRDecode)
		got, derr := out.Decoder().ReadOctets()
		if traced {
			cs.end()
		}
		switch {
		case derr != nil:
			err = derr
		case !bytes.Equal(got, in.args[4:]):
			err = errWrongReply
		}
	}
	if e.rec != nil {
		e.rec.add(span{op: in.op, id: in.root, name: spanOp, start: in.rootStart, end: e.rec.now()})
	}
	return err
}

// clampNs stores a duration as int32 nanoseconds, saturating at ±2.1s.
func clampNs(d time.Duration) int32 {
	return int32(min(max(d, math.MinInt32), math.MaxInt32))
}

var errWrongReply = fmt.Errorf("wrong reply")

// runOpen drives one open-loop phase over the env's lanes. With paced
// set, every job is sent at its intended time whatever the replies do;
// otherwise (saturate) jobs are sent as fast as a window of at most
// window requests in flight allows, until deadline. One goroutine issues
// (so at most one issuing goroutine per workload); one collector per lane
// waits for replies in send order.
func (e *env) runOpen(ctx context.Context, next func() (job, bool), paced bool, window int, deadline time.Time) *phase {
	start := time.Now()
	var rs *rateSampler
	if !paced {
		rs = startRates()
	}
	tokens := make(chan struct{}, max(window, 1))
	results := make([]*phase, len(e.lanes))
	queues := make([]chan inflight, len(e.lanes))
	var wg sync.WaitGroup
	for i := range e.lanes {
		results[i] = &phase{}
		// Deep enough that the paced issuer does not wait for a collector
		// through a stall of over 200ms on the fastest paced lane; the
		// buffer is allocated up front, so it is kept no larger.
		queues[i] = make(chan inflight, 1<<12)
		wg.Add(1)
		go func(q chan inflight, res *phase) {
			defer wg.Done()
			for in := range q {
				err := e.complete(ctx, in)
				now := time.Now()
				if !paced {
					<-tokens
				}
				if paced {
					res.lat = append(res.lat, clampNs(now.Sub(in.intended)))
					res.at = append(res.at, int32(in.intended.Sub(start).Microseconds()))
					res.lag = append(res.lag, clampNs(in.sent.Sub(in.intended)))
					if in.sent.Before(in.intended) {
						res.early++
					}
				}
				if err == nil && rs != nil {
					rs.done.Add(1)
				}
				if err != nil {
					res.failed++
					if err == errWrongReply {
						res.wrong++
					}
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
			}
		}(queues[i], results[i])
	}

	if paced {
		defer finePacing()()
	}
	var issueErrs phase
	for {
		jb, ok := next()
		if !ok {
			break
		}
		var intended time.Time
		if paced {
			intended = start.Add(jb.at)
			pace(intended)
		} else {
			if time.Now().After(deadline) {
				break
			}
			tokens <- struct{}{}
			intended = time.Now()
		}
		l := e.lanes[jb.lane]
		issueErrs.attempted++
		in, err := e.dispatch(ctx, l, l.bodies[jb.body], intended)
		if err != nil {
			if !paced {
				<-tokens
			}
			issueErrs.failed++
			if issueErrs.firstErr == nil {
				issueErrs.firstErr = err
			}
			continue
		}
		queues[jb.lane] <- in
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	if rs != nil {
		out.rates = rs.end()
	}
	attempted := issueErrs.attempted
	issueErrs.attempted = 0
	out.merge(&issueErrs)
	for _, r := range results {
		out.merge(r)
	}
	out.attempted = attempted
	return out
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK; a slack of 0 restores
// the thread's default (50µs).
const prSetTimerSlack = 29

// finePacing pins the calling goroutine to its thread and sets that
// thread's timer slack to 1ns, so a nanosleep wakes within a few µs of
// its deadline instead of 50µs or more past it. The returned func undoes
// both.
func finePacing() func() {
	runtime.LockOSThread()
	_, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		if errno == 0 {
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
		}
		runtime.UnlockOSThread()
	}
}

// pace waits until intended, the next paced send time. It sleeps in the
// nanosleep system call rather than time.Sleep: the runtime's timers wake
// up to a millisecond late on sub-millisecond sleeps, which would turn a
// Poisson schedule into bursts once per millisecond. It sleeps the whole
// remaining gap, and again if woken early, so it never returns before
// intended; a wake-up past it is send lag, which the latency includes.
func pace(intended time.Time) {
	for {
		d := time.Until(intended)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// pacedJobs returns the paced phase's schedule as a job source.
func (e *env) pacedJobs(seed uint64, d time.Duration) func() (job, bool) {
	rates := make([]float64, len(e.lanes))
	for i, l := range e.lanes {
		rates[i] = l.rate
	}
	jobs := poissonSchedule(seed, rates, bodiesPerLane, d)
	i := 0
	return func() (job, bool) {
		if i == len(jobs) {
			return job{}, false
		}
		i++
		return jobs[i-1], true
	}
}

// mixJobs returns an endless seeded job source whose lanes follow the
// paced rates' proportions.
func (e *env) mixJobs(seed uint64, purpose int) func() (job, bool) {
	var total float64
	for _, l := range e.lanes {
		total += l.rate
	}
	rng := laneRNG(seed, purpose, 0)
	return func() (job, bool) {
		x := rng.Float64() * total
		lane := 0
		for lane < len(e.lanes)-1 && x >= e.lanes[lane].rate {
			x -= e.lanes[lane].rate
			lane++
		}
		return job{lane: lane, body: rng.IntN(bodiesPerLane)}, true
	}
}

// counted limits a job source to n jobs.
func counted(next func() (job, bool), n int) func() (job, bool) {
	return func() (job, bool) {
		if n == 0 {
			return job{}, false
		}
		n--
		return next()
	}
}

// saturateWindow bounds the requests in flight during the saturate phase
// (and warm-up), over all lanes of a workload.
const saturateWindow = 64

// warm sends n requests per lane through the saturate path before the
// clock starts, failing set-up on any error.
func (e *env) warm(ctx context.Context, n int) error {
	if e.churn != nil {
		return nil
	}
	next := counted(e.mixJobs(e.seed, streamWarm), n*len(e.lanes))
	p := e.runOpen(ctx, next, false, saturateWindow, time.Now().Add(time.Hour))
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", p.failed, p.attempted, p.firstErr)
	}
	if e.rec != nil {
		e.rec.reset()
	}
	return nil
}
