package obs

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"
)

func sampleSummaries(n int) []SpanSummary {
	sums := make([]SpanSummary, n)
	for i := range sums {
		sums[i] = SpanSummary{
			SpanID:        newSpanID(),
			ParentID:      newSpanID(),
			RemoteParent:  i == 0,
			Name:          "server.dispatch",
			Operation:     "echo",
			StartUnixNano: time.Now().UnixNano(),
			DurationNano:  int64(i+1) * 1000,
		}
	}
	return sums
}

func TestTraceReturnRoundTrip(t *testing.T) {
	trace := newTraceID()
	sums := sampleSummaries(3)
	sums[1].Err = "BAD_OPERATION"
	payload := EncodeTraceReturn(trace, sums, 0)
	if payload == nil {
		t.Fatal("encode returned nil for an in-budget set")
	}
	recs, err := DecodeTraceReturn(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d spans, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.TraceID != trace.String() {
			t.Fatalf("span %d trace %s, want %s", i, rec.TraceID, trace)
		}
		if rec.SpanID != sums[i].SpanID.String() {
			t.Fatalf("span %d id %s, want %s", i, rec.SpanID, sums[i].SpanID)
		}
		if rec.ParentID != sums[i].ParentID.String() {
			t.Fatalf("span %d parent %s, want %s", i, rec.ParentID, sums[i].ParentID)
		}
		if rec.Name != "server.dispatch" || rec.Operation != "echo" {
			t.Fatalf("span %d name/op = %q/%q", i, rec.Name, rec.Operation)
		}
		if rec.Duration != time.Duration(sums[i].DurationNano) {
			t.Fatalf("span %d duration %v", i, rec.Duration)
		}
		if rec.RemoteParent != (i == 0) {
			t.Fatalf("span %d remoteParent = %v", i, rec.RemoteParent)
		}
	}
	if recs[1].Err != "BAD_OPERATION" {
		t.Fatalf("span 1 err = %q", recs[1].Err)
	}
	if recs[0].Start.UnixNano() != sums[0].StartUnixNano {
		t.Fatalf("span 0 start %d, want %d", recs[0].Start.UnixNano(), sums[0].StartUnixNano)
	}
}

func TestTraceReturnBudgetTrimsTail(t *testing.T) {
	trace := newTraceID()
	sums := sampleSummaries(8)
	full := EncodeTraceReturn(trace, sums, 4096)
	one := EncodeTraceReturn(trace, sums[:1], 4096)
	// A budget that fits one span but not eight must trim, not fail.
	payload := EncodeTraceReturn(trace, sums, len(one)+4)
	if payload == nil {
		t.Fatalf("encode returned nil with budget for one span (full %d, one %d)", len(full), len(one))
	}
	recs, err := DecodeTraceReturn(payload)
	if err != nil {
		t.Fatalf("decode trimmed payload: %v", err)
	}
	if len(recs) == 0 || len(recs) >= 8 {
		t.Fatalf("trimmed to %d spans, want 1..7", len(recs))
	}
	// A budget below any single span yields nil: the reply just carries
	// no trace-return context.
	if got := EncodeTraceReturn(trace, sums, 8); got != nil {
		t.Fatalf("hopeless budget returned %d bytes, want nil", len(got))
	}
}

func TestTraceReturnDecodeRejectsGarbage(t *testing.T) {
	trace := newTraceID()
	payload := EncodeTraceReturn(trace, sampleSummaries(2), 0)
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, payload[1:]...),
		"truncated":   payload[:len(payload)/2],
	}
	for name, data := range cases {
		if _, err := DecodeTraceReturn(data); err == nil {
			t.Fatalf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestSpanCaptureReturnPayload(t *testing.T) {
	tr := NewTracer(NewCollector(0))
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	root := tr.StartRemote(parent, "server.dispatch")
	root.CaptureReturn()
	child := root.Child("server.servant")
	child.End()
	if root.ReturnPayload() == nil {
		t.Fatal("payload nil before root end — child summary missing")
	}
	root.End()
	payload := root.ReturnPayload()
	if payload == nil {
		t.Fatal("payload nil after root end")
	}
	recs, err := DecodeTraceReturn(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("captured %d spans, want 2 (servant + dispatch)", len(recs))
	}
	for _, rec := range recs {
		if rec.TraceID != parent.TraceID.String() {
			t.Fatalf("captured span in trace %s, want %s", rec.TraceID, parent.TraceID)
		}
	}
	// Unarmed spans return nothing.
	plain := tr.StartRemote(parent, "server.dispatch")
	plain.End()
	if plain.ReturnPayload() != nil {
		t.Fatal("unarmed span produced a payload")
	}
}

// FuzzDecodeTraceReturn feeds the reply-direction span decoder hostile
// bytes: it must never panic, and whatever it accepts must survive a
// re-encode and decode unchanged.
func FuzzDecodeTraceReturn(f *testing.F) {
	trace := newTraceID()
	sums := sampleSummaries(3)
	sums[1].Err = "BAD_OPERATION"
	payload := EncodeTraceReturn(trace, sums, 0)
	f.Add(payload)
	f.Add(EncodeTraceReturn(trace, sampleSummaries(maxReturnSpans), 1<<16))
	f.Add([]byte{})
	f.Add(append([]byte{99}, payload[1:]...))
	f.Add(payload[:len(payload)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeTraceReturn(data)
		if err != nil || len(recs) == 0 {
			return // an empty span list re-encodes to nil by design
		}
		again, err := DecodeTraceReturn(reencodeTraceReturn(t, recs))
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed records:\n%+v\n%+v", recs, again)
		}
	})
}

// reencodeTraceReturn rebuilds the wire summaries of decoded records and
// encodes them with a budget large enough to keep every span.
func reencodeTraceReturn(t *testing.T, recs []SpanRecord) []byte {
	t.Helper()
	var trace TraceID
	mustHex(t, trace[:], recs[0].TraceID)
	sums := make([]SpanSummary, len(recs))
	for i, rec := range recs {
		s := &sums[i]
		mustHex(t, s.SpanID[:], rec.SpanID)
		if rec.ParentID != "" {
			mustHex(t, s.ParentID[:], rec.ParentID)
		}
		s.RemoteParent = rec.RemoteParent
		s.Name, s.Operation, s.Err = rec.Name, rec.Operation, rec.Err
		s.StartUnixNano = rec.Start.UnixNano()
		s.DurationNano = int64(rec.Duration)
	}
	payload := EncodeTraceReturn(trace, sums, math.MaxInt32)
	if payload == nil {
		t.Fatalf("decoded records did not re-encode: %+v", recs)
	}
	return payload
}

func mustHex(t *testing.T, dst []byte, s string) {
	t.Helper()
	if n, err := hex.Decode(dst, []byte(s)); err != nil || n != len(dst) {
		t.Fatalf("decoded id %q is not %d hex bytes: %v", s, len(dst), err)
	}
}
