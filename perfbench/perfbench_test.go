package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"crosslayer/internal/campaign"
)

func TestRequestSequenceIsDeterministic(t *testing.T) {
	axes, err := newSweepAxes()
	if err != nil {
		t.Fatal(err)
	}
	a, b := requestSequence(7, axes), requestSequence(7, axes)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, requestSequence(8, axes)) {
		t.Fatal("different seeds gave the same request sequence")
	}

	w, err := newServiceWorkload(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := w.plan(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := w.plan(1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := w.plan(1)
	if !reflect.DeepEqual(p1, again) || reflect.DeepEqual(p0, p1) {
		t.Fatal("pass plans are not a deterministic function of the seed and pass")
	}
	if len(p0.queries) < 100 {
		t.Fatalf("%d requests, want at least 100", len(p0.queries))
	}
	// The shape is fixed: the seed moves neither the number of cells
	// delivered nor the number of distinct cells computed.
	delivered := func(p *servicePlan) int {
		n := 0
		for _, c := range p.cells {
			n += c
		}
		return n
	}
	if delivered(p0) != delivered(p1) {
		t.Fatalf("delivered cells depend on the seed: %d vs %d", delivered(p0), delivered(p1))
	}
	all, err := campaign.CellsAtRank(sweepFilter, sweepLatticeRank)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	seen := map[string]bool{}
	repeats := 0
	for _, r := range a {
		cells, err := campaign.CellsAtRank(r.filter(), sweepLatticeRank)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			distinct[c.Key()] = true
		}
		q := r.query(7, 2)
		if seen[q] {
			repeats++
		}
		seen[q] = true
	}
	if len(distinct) != len(all) {
		t.Fatalf("requests cover %d distinct cells, want all %d of campaign-sweep", len(distinct), len(all))
	}
	if repeats < repeatRequests {
		t.Fatalf("%d repeated requests, want at least %d", repeats, repeatRequests)
	}
}

func TestScanCapsAreDeterministic(t *testing.T) {
	for _, name := range []string{"resolver-scan", "domain-scan"} {
		a, err := newWorkload(name, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 3, 2)
		type sized interface{ items() int }
		if a.(sized).items() != b.(sized).items() || a.(sized).items() == 0 {
			t.Fatalf("%s: caps not deterministic", name)
		}
	}
	if _, err := newWorkload("nope", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func iv(start, end int) interval {
	return interval{time.Duration(start) * time.Millisecond, time.Duration(end) * time.Millisecond}
}

func TestBusyShare(t *testing.T) {
	// Two workers over 10ms: one unit of 10ms on one worker and nothing
	// on the other is half the capacity.
	if got := busyShare([]interval{iv(0, 10)}, 2, 10*time.Millisecond); got != 0.5 {
		t.Fatalf("one of two workers busy: got %v, want 0.5", got)
	}
	if got := busyShare([]interval{iv(0, 10), iv(0, 6), iv(6, 10)}, 2, 10*time.Millisecond); got != 1 {
		t.Fatalf("both workers busy: got %v, want 1", got)
	}
	if got := busyShare(nil, 2, 0); got != 0 {
		t.Fatalf("empty wall: got %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 10},
		{"disjoint", []interval{iv(1, 3), iv(5, 6)}, 7},
		{"overlapping", []interval{iv(1, 4), iv(2, 6)}, 5},
		{"nested", []interval{iv(1, 8), iv(2, 3)}, 3},
		{"clipped to the parent", []interval{iv(-5, 2), iv(9, 20)}, 7},
		{"outside the parent", []interval{iv(20, 30)}, 10},
	}
	for _, c := range cases {
		if got := selfTime(iv(0, 10), c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: got %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}, {0.25, 2}} {
		if got := percentile(vs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v): got %v, want %v", c.q, got, c.want)
		}
	}
	if median([]float64{1, 2, 3, 10}) != 2.5 || median(nil) != 0 {
		t.Error("median wrong")
	}
	if vs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func TestSampleLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crosslayer/internal/dnswire.(*Message).AppendPack", "crosslayer/internal/dnssrv.(*Server).handle"}, "wire"},
		{[]string{"runtime.memmove", "crosslayer/internal/dnswire.(*Message).AppendPack"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "crosslayer/internal/sim.(*Clock).Run"}, "gc"},
		{[]string{"math/rand.(*rngSource).Seed", "math/rand.New", "crosslayer/internal/sim.NewClock"}, "sim"},
		{[]string{"crosslayer/internal/engine.executeBursts[go.shape.struct {}].func1"}, "dispatch"},
		{[]string{"encoding/json.(*encodeState).marshal", "main.do"}, "other"},
		{[]string{"crosslayer/internal/newpkg.F"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	if got := funcPackage("crosslayer/internal/engine.RunWorkersCachedCtx[go.shape.*crosslayer/internal/campaign.trialWorker].func1"); got != "crosslayer/internal/engine" {
		t.Errorf("funcPackage of a generic instantiation = %q", got)
	}
}

// pb is a minimal protobuf encoder for building profiles by hand.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestFoldProfile(t *testing.T) {
	// Functions: 1 dnswire pack, 2 dnssrv handler, 3 runtime memmove.
	// Location 10 is the pack with the handler inlined into it.
	var p pb
	for _, s := range []string{"", "crosslayer/internal/dnswire.(*Message).AppendPack",
		"crosslayer/internal/dnssrv.(*Server).handle", "runtime.memmove"} {
		p = p.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id))
	}
	p = p.bytes(4, pb{}.varint(1, 10).bytes(4, pb{}.varint(1, 1)).bytes(4, pb{}.varint(1, 2)))
	p = p.bytes(4, pb{}.varint(1, 11).bytes(4, pb{}.varint(1, 3)))
	// Samples: [count, nanoseconds]; packed location ids, leaf first.
	p = p.bytes(2, pb{}.bytes(1, packed(10)).bytes(2, packed(3, 30)))
	p = p.bytes(2, pb{}.bytes(1, packed(11, 10)).bytes(2, packed(1, 10)))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	ns, n, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || ns["wire"] != 30 || ns["runtime"] != 10 || len(ns) != 2 {
		t.Fatalf("got %d samples, %v; want 2 samples, wire 30ns, runtime 10ns", n, ns)
	}
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if d.better != "higher" && d.better != "lower" || d.moves == "" {
			t.Errorf("metric %q: better %q, moves %q", d.name, d.better, d.moves)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (entry{d.name, d.unit, d.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, perfbench %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// exactMetrics are the per-layer work counts and simulated statistics
// that must repeat exactly across traced runs of the same seed.
var exactMetrics = []string{
	"engine.units", "measure.truth_agreement",
	"netsim.delivered_per_item", "netsim.dropped_per_item", "netsim.icmp_suppressed_per_item",
	"resolver.upstream_queries_per_item", "resolver.tcp_fallbacks_per_item", "resolver.timeouts_per_item",
	"dnssrv.responses_per_item", "dnssrv.rate_dropped_per_item", "dnssrv.truncated_per_item",
	"core.packets_per_trial", "core.iterations_per_trial", "core.virtual_s_per_trial",
	"campaign.poisoned_share", "campaign.impact_share", "serve.cache_hit_share",
}

// tracedTwice runs two traced passes of w in fresh tracers and checks
// that both pass their output checks and repeat every exact metric.
func tracedTwice(t *testing.T, w workload) metricSet {
	t.Helper()
	ctx := context.Background()
	if err := w.prepareTrace(ctx); err != nil {
		t.Fatal(err)
	}
	st1, m1 := w.tracedPass(ctx, newTracer())
	st2, m2 := w.tracedPass(ctx, newTracer())
	if st1.failed != 0 || st2.failed != 0 || st1.ops == 0 {
		t.Fatalf("traced passes failed %d and %d of %d operations", st1.failed, st2.failed, st1.ops)
	}
	for _, name := range exactMetrics {
		if m1[name] != m2[name] {
			t.Errorf("%s: %v then %v across traced runs of one seed", name, m1[name], m2[name])
		}
	}
	return m1
}

func TestTracedScansMatchTheRegistry(t *testing.T) {
	// Small caps keep the test quick; several shards per dataset keep
	// the rebuild's shard plan and merge order honest.
	for _, w := range []workload{
		newScanWorkload(resolverScan, 5, 40, 16, 2),
		newScanWorkload(domainScan, 5, 24, 8, 2),
	} {
		for k := 0; k < 2; k++ {
			if st := w.pass(context.Background(), k); st.failed != 0 {
				t.Fatalf("untraced pass %d failed %d of %d checks", k, st.failed, st.ops)
			}
		}
		m := tracedTwice(t, w)
		if m["engine.units"] == 0 || m["netsim.delivered_per_item"] == 0 || m["measure.truth_agreement"] == 0 {
			t.Errorf("layer counters not read: %v", m)
		}
	}
}

func TestTracedCampaignMatchesTheRegistry(t *testing.T) {
	f := campaign.Filter{Methods: []string{"saddns", "frag"}, Victims: []string{"web"},
		Profiles: []string{"bind"}, ChainDepths: []string{"0"}, Placements: []string{"stub"},
		Transports: []string{"udp"}}
	w, err := newCampaignWorkload(5, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	if st := w.pass(context.Background(), 1); st.failed != 0 {
		t.Fatalf("untraced pass failed %d of %d checks", st.failed, st.ops)
	}
	m := tracedTwice(t, w)
	if m["engine.units"] != float64(w.cells) || m["core.packets_per_trial"] == 0 {
		t.Errorf("cell spans or attack counters not read: %v", m)
	}
}

func TestServicePassChecksEveryReply(t *testing.T) {
	one := sweepRequest{methods: []string{"hijack"}, victims: []string{"web"}, profiles: []string{"bind"},
		defenseSets: []string{"none", "0x20"}, depths: []string{"0"}, transports: []string{"udp"}}
	wider := one
	wider.defenseSets = nil
	p, err := newServicePlan(5, 2, []sweepRequest{one, wider, one})
	if err != nil {
		t.Fatal(err)
	}
	w := &serviceWorkload{seed: 5, workers: 2, first: p}
	st, m := w.tracedPass(context.Background(), newTracer())
	if st.failed != 0 || st.ops != 3 || len(st.requestsMS) != 3 {
		t.Fatalf("%d of %d requests failed, %d latencies", st.failed, st.ops, len(st.requestsMS))
	}
	// 2 cells computed, then 2 of the wider request's cells hit, then
	// the repeat hits both.
	hits, cells := 4.0, float64(p.cells[0]+p.cells[1]+p.cells[2])
	if m["serve.cache_hit_share"] != hits/cells || m["engine.units"] != cells {
		t.Errorf("cache hit share %v of %v cells, want %v", m["serve.cache_hit_share"], m["engine.units"], hits/cells)
	}
}
