package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: crosslayer
BenchmarkTable1Applications-8        	       1	   1234567 ns/op
BenchmarkCampaign-8                  	       1	998877665 ns/op	  512 B/op	       7 allocs/op
BenchmarkTable3Parallel/serial-16    	       2	 42000000.5 ns/op
PASS
ok  	crosslayer	2.345s
`
	got, err := Parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkTable1Applications", Iterations: 1, NsPerOp: 1234567, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkCampaign", Iterations: 1, NsPerOp: 998877665, BytesPerOp: 512, AllocsPerOp: 7},
		{Name: "BenchmarkTable3Parallel/serial", Iterations: 2, NsPerOp: 42000000.5, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestParseReportMetric pins b.ReportMetric columns: the testing
// package prints them between ns/op and B/op, and they must neither
// hide the memory columns nor be lost themselves.
func TestParseReportMetric(t *testing.T) {
	in := "BenchmarkCampaign-2   \t      14\t 174798281 ns/op\t      5320 pkts/op\t  30502537 B/op\t  209742 allocs/op\n" +
		"BenchmarkX-2   \t 3\t 100 ns/op\t 1.5 MB/s\t 2.25 pkts/op\n"
	got, err := Parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkCampaign", Iterations: 14, NsPerOp: 174798281, BytesPerOp: 30502537, AllocsPerOp: 209742,
			Metrics: map[string]float64{"pkts/op": 5320}},
		{Name: "BenchmarkX", Iterations: 3, NsPerOp: 100, BytesPerOp: -1, AllocsPerOp: -1,
			Metrics: map[string]float64{"MB/s": 1.5, "pkts/op": 2.25}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if _, err := Parse(bufio.NewScanner(strings.NewReader("BenchmarkY-2 1 100 ns/op 7\n"))); err == nil {
		t.Fatal("accepted a value without a unit")
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	got, err := Parse(bufio.NewScanner(strings.NewReader("PASS\nok x 1s\n--- FAIL: TestY\n")))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestCompareBreach(t *testing.T) {
	old := []Result{{Name: "BenchmarkCampaign", NsPerOp: 100, AllocsPerOp: 7}}
	cur := []Result{{Name: "BenchmarkCampaign", NsPerOp: 200, AllocsPerOp: 9}}
	table, breach := Compare(old, cur, 15)
	if !breach {
		t.Fatalf("2x slowdown passed a 15%% gate:\n%s", table)
	}
	for _, want := range []string{"BREACH", "+100.0%", "7→9", "refresh the baseline", "$BENCH_BASELINE"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "BENCH_2.json") {
		t.Errorf("breach message names a stale baseline file:\n%s", table)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	old := []Result{
		{Name: "BenchmarkCampaign", NsPerOp: 100, AllocsPerOp: -1},
		{Name: "BenchmarkFaster", NsPerOp: 100, AllocsPerOp: 3},
	}
	cur := []Result{
		{Name: "BenchmarkCampaign", NsPerOp: 110, AllocsPerOp: 0},
		{Name: "BenchmarkFaster", NsPerOp: 40, AllocsPerOp: 3},
	}
	table, breach := Compare(old, cur, 15)
	if breach {
		t.Fatalf("10%% slowdown breached a 15%% gate:\n%s", table)
	}
	// A side without memory columns renders as "?", and 0 allocs must
	// render as a real 0, not as absent.
	if !strings.Contains(table, "?→0") {
		t.Errorf("table missing ?→0 alloc transition:\n%s", table)
	}
	if strings.Contains(table, "BREACH") {
		t.Errorf("unexpected breach row:\n%s", table)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	old := []Result{{Name: "BenchmarkDropped", NsPerOp: 100, AllocsPerOp: -1}}
	cur := []Result{{Name: "BenchmarkAdded", NsPerOp: 50, AllocsPerOp: 2}}
	table, breach := Compare(old, cur, 15)
	if !breach {
		t.Fatalf("dropped benchmark passed the gate:\n%s", table)
	}
	if !strings.Contains(table, "BREACH (missing from new record)") {
		t.Errorf("table missing dropped-benchmark breach:\n%s", table)
	}
	// A benchmark only the new record has is a note, never a breach.
	if !strings.Contains(table, "new (not in baseline)") {
		t.Errorf("table missing new-benchmark note:\n%s", table)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":        "BenchmarkX",
		"BenchmarkX-16":       "BenchmarkX",
		"BenchmarkX":          "BenchmarkX",
		"BenchmarkX/sub-4":    "BenchmarkX/sub",
		"BenchmarkX/n-1000-8": "BenchmarkX/n-1000",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
