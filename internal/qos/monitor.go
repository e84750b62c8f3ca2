package qos

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Stats is a snapshot of a monitor's sliding window.
type Stats struct {
	// Count is the number of observations ever made.
	Count uint64
	// Errors is the number of failed invocations ever observed.
	Errors uint64
	// Window is the number of observations currently in the window.
	Window int
	// EWMA is the exponentially weighted moving average round-trip time.
	EWMA time.Duration
	// Mean, P50, P95 and Max summarise the window's round-trip times.
	Mean, P50, P95, Max time.Duration
	// ErrorRate is errors/count over the window.
	ErrorRate float64
	// Throughput is observations per second over the window's time span.
	Throughput float64
}

// Monitor accumulates invocation observations into a sliding window: a
// statistics view (percentiles, EWMA, error rate, throughput) of one
// stub's recent calls. It scores nothing against the contract — that is
// the SLOEngine's job. Attach it with Stub.AddObserver(monitor.Observe).
type Monitor struct {
	mu         sync.Mutex
	windowSize int
	alpha      float64
	ring       []Observation
	next       int
	filled     bool
	count      uint64
	errors     uint64
	ewma       float64 // nanoseconds
	ewmaSet    bool    // distinguishes "no observation yet" from a 0ns EWMA
}

// NewMonitor constructs a monitor with the given sliding window size.
func NewMonitor(windowSize int) *Monitor {
	if windowSize <= 0 {
		windowSize = 64
	}
	return &Monitor{windowSize: windowSize, alpha: 0.2, ring: make([]Observation, windowSize)}
}

// Observe records one invocation. It matches the Observer signature.
func (m *Monitor) Observe(o Observation) {
	m.mu.Lock()
	m.count++
	if o.Err != nil {
		m.errors++
	}
	m.ring[m.next] = o
	m.next++
	if m.next == m.windowSize {
		m.next = 0
		m.filled = true
	}
	// Seed the EWMA from the first observation only; a genuine 0ns RTT
	// must not make a later observation re-seed it.
	if !m.ewmaSet {
		m.ewma = float64(o.RTT)
		m.ewmaSet = true
	} else {
		m.ewma = m.alpha*float64(o.RTT) + (1-m.alpha)*m.ewma
	}
	m.mu.Unlock()
}

// Snapshot summarises the current window.
func (m *Monitor) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.next
	if m.filled {
		n = m.windowSize
	}
	st := Stats{Count: m.count, Errors: m.errors, Window: n, EWMA: time.Duration(m.ewma)}
	if n == 0 {
		return st
	}
	rtts := make([]time.Duration, 0, n)
	var sum time.Duration
	var windowErrs int
	oldest := time.Time{}
	newest := time.Time{}
	for i := 0; i < n; i++ {
		o := m.ring[i]
		rtts = append(rtts, o.RTT)
		sum += o.RTT
		if o.Err != nil {
			windowErrs++
		}
		if oldest.IsZero() || o.At.Before(oldest) {
			oldest = o.At
		}
		if o.At.After(newest) {
			newest = o.At
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	st.Mean = sum / time.Duration(n)
	st.P50 = rtts[n/2]
	st.P95 = rtts[min(n-1, int(math.Ceil(float64(n)*0.95))-1)]
	st.Max = rtts[n-1]
	st.ErrorRate = float64(windowErrs) / float64(n)
	if span := newest.Sub(oldest); span > 0 && n > 1 {
		st.Throughput = float64(n-1) / span.Seconds()
	}
	return st
}
