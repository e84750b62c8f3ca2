package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/characteristics/compression"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos/transport"
)

// procs is the process's parallelism: GOMAXPROCS is set to the CPU
// count, and no workload issues from more goroutines or connections.
func procs() int { return runtime.NumCPU() }

// counters is one snapshot of everything the packages already export,
// plus process CPU and memory. measure takes one before and one after
// the measured phases; their difference excludes set-up.
type counters struct {
	cpu                     time.Duration
	totalAlloc, numGC       uint64
	gcCPU, allCPU           float64
	cdrGets, cdrMisses      uint64
	frameGets, frameMisses  uint64
	frames, frameBytes      uint64
	futGets, futMisses      uint64
	pendGets, pendMisses    uint64
	routes                  transport.DispatchCounts
	flateRaw, flateWire     uint64
	phaseSum                map[string]float64 // seconds, by phase
	phaseCount              map[string]uint64
	admitted, shed, retries uint64
	kept, dropped, evicted  uint64
	writes, reads           uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS returns the process's peak resident set size in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (e *env) snapshot() counters {
	var c counters
	c.cpu = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC = ms.TotalAlloc, uint64(ms.NumGC)
	metrics.Read(cpuSamples)
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.allCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	}
	ps := cdr.PoolStats()
	c.cdrGets, c.cdrMisses = ps.Gets, ps.Misses
	fp := giop.FramePoolStats()
	c.frameGets, c.frameMisses = fp.Gets, fp.Misses
	fs := giop.FrameSizes()
	c.frames, c.frameBytes = fs.Count, fs.Sum
	c.futGets, c.futMisses = orb.FuturePoolStats()
	c.pendGets, c.pendMisses = orb.PendingPoolStats()
	for _, sys := range e.clients {
		r := sys.Transport.Counts()
		c.routes.PlainIIOP += r.PlainIIOP
		c.routes.QoSFallback += r.QoSFallback
		c.routes.QoSModule += r.QoSModule
	}
	for _, m := range e.flate {
		if fm, ok := m.(*compression.Module); ok {
			s := fm.Stats()
			c.flateRaw += s.RawBytes
			c.flateWire += s.WireBytes
		}
	}
	c.phaseSum, c.phaseCount = map[string]float64{}, map[string]uint64{}
	if e.serverOb != nil {
		snap := e.serverOb.Registry.Snapshot()
		for _, h := range snap.Histograms {
			if !strings.HasPrefix(h.Name, "maqs_phase_seconds{") {
				continue
			}
			if i := strings.Index(h.Name, `phase="`); i >= 0 {
				ph := h.Name[i+len(`phase="`):]
				ph = ph[:strings.IndexByte(ph, '"')]
				c.phaseSum[ph] += h.Sum
				c.phaseCount[ph] += h.Count
			}
		}
		c.admitted = snap.Counters["maqs_server_admitted_total"]
		c.shed = snap.Counters["maqs_server_shed_total"]
	}
	for _, b := range e.bundles {
		c.retries += b.Registry.Snapshot().Counters["maqs_retry_attempts_total"]
		st := b.Sampler.Stats()
		for _, v := range st.Kept {
			c.kept += v
		}
		for _, v := range st.Dropped {
			c.dropped += v
		}
		c.evicted += st.Evicted
	}
	c.writes, c.reads = e.conns.writes.Load(), e.conns.reads.Load()
	return c
}

// sub returns c − o.
func (c counters) sub(o counters) counters {
	d := c
	d.cpu -= o.cpu
	d.totalAlloc -= o.totalAlloc
	d.numGC -= o.numGC
	d.gcCPU -= o.gcCPU
	d.allCPU -= o.allCPU
	d.cdrGets -= o.cdrGets
	d.cdrMisses -= o.cdrMisses
	d.frameGets -= o.frameGets
	d.frameMisses -= o.frameMisses
	d.frames -= o.frames
	d.frameBytes -= o.frameBytes
	d.futGets -= o.futGets
	d.futMisses -= o.futMisses
	d.pendGets -= o.pendGets
	d.pendMisses -= o.pendMisses
	d.routes.PlainIIOP -= o.routes.PlainIIOP
	d.routes.QoSFallback -= o.routes.QoSFallback
	d.routes.QoSModule -= o.routes.QoSModule
	d.flateRaw -= o.flateRaw
	d.flateWire -= o.flateWire
	d.phaseSum, d.phaseCount = map[string]float64{}, map[string]uint64{}
	for k, v := range c.phaseSum {
		d.phaseSum[k] = v - o.phaseSum[k]
		d.phaseCount[k] = c.phaseCount[k] - o.phaseCount[k]
	}
	d.admitted -= o.admitted
	d.shed -= o.shed
	d.retries -= o.retries
	d.kept -= o.kept
	d.dropped -= o.dropped
	d.evicted -= o.evicted
	d.writes -= o.writes
	d.reads -= o.reads
	return d
}

// peaks samples heap in use and goroutine count while a traced run
// measures.
type peaks struct {
	stop            chan struct{}
	done            sync.WaitGroup
	heapMax, gorMax uint64
}

func startPeaks() *peaks {
	p := &peaks{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			if samples[0].Value.Kind() == metrics.KindUint64 {
				p.heapMax = max(p.heapMax, samples[0].Value.Uint64())
				p.gorMax = max(p.gorMax, samples[1].Value.Uint64())
			}
			select {
			case <-t.C:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *peaks) end() {
	close(p.stop)
	p.done.Wait()
}

// quantile returns the q-quantile of v (nearest rank over the sorted
// values), or 0 for no values. v is sorted in place.
func quantile(v []int32, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q*float64(len(v))+0.5) - 1
	return int64(v[min(max(i, 0), len(v)-1)])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A phase's latencies are split into equal time windows (by intended
// send time) and a latency percentile is reported as the median of its
// per-window values: a scheduler stall or GC storm moves the windows it
// falls in, not the figure. Windows hold about windowSamples ops each,
// so a window's p99 still has twenty samples beyond it.
const (
	windowSamples = 2000
	minWindows    = 5
	maxWindows    = 200
)

// windowed returns the median over the phase's windows of the q-quantile
// of the latencies in each window, the fewest samples a window held, and
// the per-window values.
func windowed(p *phase, q float64) (float64, int, []float64) {
	nw := min(max(len(p.lat)/windowSamples, minWindows), maxWindows)
	var span int64
	for _, a := range p.at {
		span = max(span, int64(a)+1)
	}
	win := make([][]int32, nw)
	for i, a := range p.at {
		w := int(int64(a) * int64(nw) / span)
		win[w] = append(win[w], p.lat[i])
	}
	var vals []float64
	fewest := len(p.lat)
	for _, w := range win {
		if len(w) == 0 {
			continue
		}
		vals = append(vals, float64(quantile(w, q)))
		fewest = min(fewest, len(w))
	}
	return median(vals), fewest, vals
}
