package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseLine(t *testing.T) {
	r, ok := ParseLine("BenchmarkE1Interception/plain/0B-8   163844   7534 ns/op   1680 B/op   42 allocs/op")
	if !ok {
		t.Fatal("bench line not recognised")
	}
	if r.Name != "BenchmarkE1Interception/plain/0B" {
		t.Fatalf("name = %q (GOMAXPROCS suffix should be stripped)", r.Name)
	}
	if r.Iterations != 163844 || r.NsPerOp != 7534 || r.BytesPerOp != 1680 || r.AllocsPerOp != 42 {
		t.Fatalf("parsed = %+v", r)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  	maqs	1.2s",
		"BenchmarkBroken notanumber 5 ns/op",
		"",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("line %q parsed as benchmark", line)
		}
	}
}

func TestParseLineWithoutBenchmem(t *testing.T) {
	r, ok := ParseLine("BenchmarkEcho-4   100   250.5 ns/op")
	if !ok || r.NsPerOp != 250.5 || r.BytesPerOp != 0 {
		t.Fatalf("parsed = %+v ok=%v", r, ok)
	}
}

func TestParseContextLine(t *testing.T) {
	ctx := map[string]string{}
	for _, line := range []string{"goos: linux", "goarch: amd64", "cpu: Xeon", "pkg: maqs", "random text"} {
		ParseContextLine(ctx, line)
	}
	if ctx["goos"] != "linux" || ctx["goarch"] != "amd64" || ctx["cpu"] != "Xeon" {
		t.Fatalf("context = %v", ctx)
	}
	if _, ok := ctx["pkg"]; ok {
		t.Fatal("pkg must not be captured (one run spans several packages)")
	}
}

func TestStamp(t *testing.T) {
	ctx := map[string]string{}
	Stamp(ctx)
	if ctx["git_commit"] == "" {
		t.Fatal("git_commit missing")
	}
	ts, ok := ctx["generated_at"]
	if !ok {
		t.Fatal("generated_at missing")
	}
	if _, err := time.Parse(time.RFC3339, ts); err != nil {
		t.Fatalf("generated_at %q is not ISO-8601/RFC3339: %v", ts, err)
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	doc := NewDoc()
	doc.Context["goos"] = "linux"
	doc.Results = append(doc.Results,
		Result{Name: "BenchmarkEcho", Iterations: 10, NsPerOp: 123},
		Result{Name: "Loadgen/gold/throughput", Iterations: 1000, Value: 512.5, Unit: "req/s"},
	)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := doc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("trajectory files end in a newline")
	}
	var back Doc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 2 || back.Results[1].Unit != "req/s" {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Context["git_commit"] == "" || back.Context["generated_at"] == "" {
		t.Fatalf("context lost its stamp: %v", back.Context)
	}
}

// TestResultZeroValueRoundTrip keeps a measured zero: a result with a
// unit writes its value even when it is 0, and unitless benchmark lines
// stay without one.
func TestResultZeroValueRoundTrip(t *testing.T) {
	zero := Result{Name: "Loadgen/gold/errors", Iterations: 10, Unit: "count", Value: 0}
	data, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"value":0`) {
		t.Fatalf("zero value dropped: %s", data)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != zero {
		t.Fatalf("round trip = %+v, want %+v", back, zero)
	}

	data, err = json.Marshal(Result{Name: "BenchmarkEcho", Iterations: 10, NsPerOp: 123})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"BenchmarkEcho","iterations":10,"ns_per_op":123}`; string(data) != want {
		t.Fatalf("benchmark line = %s, want %s", data, want)
	}
}
