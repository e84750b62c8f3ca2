package obs

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestFlightRingWrapAndSeq(t *testing.T) {
	f := NewFlightRecorder(4, 2, 8)
	for i := 0; i < 10; i++ {
		f.Record(FlightRecord{Operation: "op" + strconv.Itoa(i)})
	}
	if got := f.TotalRecorded(); got != 10 {
		t.Fatalf("TotalRecorded = %d, want 10", got)
	}
	recs := f.Records(0)
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want capacity 4", len(recs))
	}
	// Oldest first: the ring holds the newest 4 of 10.
	for i, r := range recs {
		want := "op" + strconv.Itoa(6+i)
		if r.Operation != want {
			t.Errorf("record %d: op %q, want %q", i, r.Operation, want)
		}
		if r.Seq != uint64(7+i) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, 7+i)
		}
	}
	if got := f.Records(2); len(got) != 2 || got[1].Operation != "op9" {
		t.Fatalf("Records(2) = %+v, want newest two ending op9", got)
	}
}

func TestFlightTriggerFreezesTail(t *testing.T) {
	f := NewFlightRecorder(8, 3, 4)
	f.SetDumpCooldown(0)
	for i := 0; i < 5; i++ {
		f.Record(FlightRecord{Operation: "call" + strconv.Itoa(i)})
	}
	id := f.Trigger(AnomalyRetryExhausted, FlightRecord{
		Operation: "call4", Attempts: 3, BreakerState: "Closed",
	})
	if id == "" {
		t.Fatal("Trigger returned empty id")
	}
	d, ok := f.Dump(id)
	if !ok {
		t.Fatalf("Dump(%q) not found", id)
	}
	if d.Kind != AnomalyRetryExhausted {
		t.Errorf("dump kind %q", d.Kind)
	}
	if d.Trigger.Anomaly != AnomalyRetryExhausted {
		t.Errorf("trigger record not stamped with anomaly: %+v", d.Trigger)
	}
	if d.Trigger.Attempts != 3 || d.Trigger.BreakerState != "Closed" {
		t.Errorf("trigger forensic fields lost: %+v", d.Trigger)
	}
	if d.Trigger.At.IsZero() {
		t.Error("trigger At not defaulted")
	}
	if len(d.Records) != 3 {
		t.Fatalf("dump froze %d records, want snapshot depth 3", len(d.Records))
	}
	if d.Records[2].Operation != "call4" {
		t.Errorf("dump tail should end at newest record, got %q", d.Records[2].Operation)
	}
	// The dump is immutable: later records must not leak into it.
	f.Record(FlightRecord{Operation: "later"})
	d2, _ := f.Dump(id)
	if d2.Records[2].Operation != "call4" {
		t.Error("dump records changed after later Record")
	}
}

func TestFlightDumpCooldownAndEviction(t *testing.T) {
	f := NewFlightRecorder(8, 2, 2)
	f.SetDumpCooldown(time.Hour)
	first := f.Trigger(AnomalyBreakerOpen, FlightRecord{Operation: "(breaker)"})
	if first == "" {
		t.Fatal("first trigger suppressed")
	}
	if again := f.Trigger(AnomalyBreakerOpen, FlightRecord{Operation: "(breaker)"}); again != "" {
		t.Fatalf("same-kind trigger within cooldown not suppressed: %q", again)
	}
	// A different kind has its own cooldown clock.
	if other := f.Trigger(AnomalyDeadlineMiss, FlightRecord{Operation: "x"}); other == "" {
		t.Fatal("different-kind trigger suppressed by foreign cooldown")
	}
	// Disabling the cooldown lets dumps through; maxDumps=2 evicts oldest.
	f.SetDumpCooldown(0)
	third := f.Trigger(AnomalyBreakerOpen, FlightRecord{Operation: "(breaker)"})
	sums := f.Dumps()
	if len(sums) != 2 {
		t.Fatalf("retained %d dumps, want maxDumps 2", len(sums))
	}
	if _, ok := f.Dump(first); ok {
		t.Error("oldest dump not evicted")
	}
	if _, ok := f.Dump(third); !ok {
		t.Error("newest dump missing")
	}
}

func TestFlightSnapshotAndUnknownDump(t *testing.T) {
	f := NewFlightRecorder(4, 2, 4)
	f.SetDumpCooldown(0)
	f.Record(FlightRecord{Operation: "a", Outcome: "ok"})
	f.Trigger(AnomalyDeadlineMiss, FlightRecord{Operation: "a"})
	s := f.Snapshot(0)
	if s.Total != 1 || len(s.Records) != 1 || len(s.Dumps) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if _, ok := f.Dump("no-such-id"); ok {
		t.Error("unknown dump id found")
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.SetDumpCooldown(time.Second)
	f.Record(FlightRecord{Operation: "x"})
	if id := f.Trigger(AnomalyRetryExhausted, FlightRecord{}); id != "" {
		t.Errorf("nil Trigger returned id %q", id)
	}
	if r := f.Records(5); r != nil {
		t.Errorf("nil Records = %v", r)
	}
	if _, ok := f.Dump("x"); ok {
		t.Error("nil Dump found something")
	}
	if d := f.Dumps(); d != nil {
		t.Errorf("nil Dumps = %v", d)
	}
	if n := f.TotalRecorded(); n != 0 {
		t.Errorf("nil TotalRecorded = %d", n)
	}
	s := f.Snapshot(0)
	if s.Total != 0 || s.Dumps == nil || s.Records == nil {
		t.Errorf("nil Snapshot = %+v (slices must be non-nil for JSON)", s)
	}
}

func TestFlightConcurrentUse(t *testing.T) {
	f := NewFlightRecorder(64, 8, 8)
	f.SetDumpCooldown(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(FlightRecord{Operation: "g" + strconv.Itoa(g)})
				if i%50 == 0 {
					f.Trigger(AnomalyDeadlineMiss, FlightRecord{Operation: "g" + strconv.Itoa(g)})
					f.Records(4)
					f.Snapshot(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := f.TotalRecorded(); got != 8*200 {
		t.Fatalf("TotalRecorded = %d, want %d", got, 8*200)
	}
}

// TestFlightDumpEvictionKindAware floods the retained set with one
// anomaly kind and asserts a rare kind's single dump survives: eviction
// takes the oldest dump of the most numerous kind, not the globally
// oldest.
func TestFlightDumpEvictionKindAware(t *testing.T) {
	f := NewFlightRecorder(8, 2, 4)
	f.SetDumpCooldown(0)
	rare := f.Trigger(AnomalySLOBurn, FlightRecord{Operation: "(slo)"})
	if rare == "" {
		t.Fatal("rare trigger suppressed")
	}
	var flood []string
	for i := 0; i < 6; i++ {
		flood = append(flood, f.Trigger(AnomalyRetryExhausted, FlightRecord{Operation: "echo"}))
	}
	if _, ok := f.Dump(rare); !ok {
		t.Fatalf("rare %s dump evicted by a %s flood", AnomalySLOBurn, AnomalyRetryExhausted)
	}
	sums := f.Dumps()
	if len(sums) != 4 {
		t.Fatalf("retained %d dumps, want maxDumps 4", len(sums))
	}
	// The flood's newest dumps are retained, its oldest evicted.
	if _, ok := f.Dump(flood[len(flood)-1]); !ok {
		t.Error("newest flood dump missing")
	}
	if _, ok := f.Dump(flood[0]); ok {
		t.Error("oldest flood dump not evicted")
	}
}
