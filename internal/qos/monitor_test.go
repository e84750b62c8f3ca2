package qos

import (
	"errors"
	"testing"
	"time"
)

func feed(m *Monitor, rtts ...time.Duration) {
	base := time.Now()
	for i, r := range rtts {
		m.Observe(Observation{RTT: r, At: base.Add(time.Duration(i) * 10 * time.Millisecond)})
	}
}

func TestMonitorPercentilesKnownValues(t *testing.T) {
	m := NewMonitor(100)
	// 1..100 ms.
	rtts := make([]time.Duration, 100)
	for i := range rtts {
		rtts[i] = time.Duration(i+1) * time.Millisecond
	}
	feed(m, rtts...)
	st := m.Snapshot()
	if st.Window != 100 || st.Count != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.P50 != 51*time.Millisecond { // index 50 of sorted 1..100
		t.Fatalf("p50 = %v", st.P50)
	}
	if st.P95 != 95*time.Millisecond {
		t.Fatalf("p95 = %v", st.P95)
	}
	if st.Max != 100*time.Millisecond {
		t.Fatalf("max = %v", st.Max)
	}
	if st.Throughput < 90 || st.Throughput > 110 {
		t.Fatalf("throughput = %g obs/s", st.Throughput)
	}
}

func TestMonitorEWMAConverges(t *testing.T) {
	m := NewMonitor(8)
	for i := 0; i < 100; i++ {
		m.Observe(Observation{RTT: 10 * time.Millisecond, At: time.Now()})
	}
	st := m.Snapshot()
	if st.EWMA < 9*time.Millisecond || st.EWMA > 11*time.Millisecond {
		t.Fatalf("ewma = %v", st.EWMA)
	}
	// A burst of slow calls pulls the EWMA up quickly (alpha 0.2).
	for i := 0; i < 10; i++ {
		m.Observe(Observation{RTT: 100 * time.Millisecond, At: time.Now()})
	}
	if st := m.Snapshot(); st.EWMA < 50*time.Millisecond {
		t.Fatalf("ewma after burst = %v", st.EWMA)
	}
}

func TestMonitorErrorRateWindowed(t *testing.T) {
	m := NewMonitor(4)
	boom := errors.New("boom")
	m.Observe(Observation{RTT: time.Millisecond, Err: boom, At: time.Now()})
	for i := 0; i < 4; i++ {
		m.Observe(Observation{RTT: time.Millisecond, At: time.Now()})
	}
	st := m.Snapshot()
	// The error slid out of the window but stays in the totals.
	if st.ErrorRate != 0 {
		t.Fatalf("window error rate = %g", st.ErrorRate)
	}
	if st.Errors != 1 || st.Count != 5 {
		t.Fatalf("totals = %+v", st)
	}
}

func TestMonitorEmptySnapshot(t *testing.T) {
	m := NewMonitor(0) // size clamps to default
	st := m.Snapshot()
	if st.Window != 0 || st.Count != 0 || st.Mean != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}
