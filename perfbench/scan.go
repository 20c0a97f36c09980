package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"

	"crosslayer/internal/engine"
	"crosslayer/internal/measure"
	"crosslayer/internal/netsim"
	"crosslayer/internal/report"
)

// scanKind binds the scan workload to one §5 population scan: its
// registered experiment, its datasets, and the public measure
// functions that build and scan one fleet shard.
type scanKind[S, F, R any] struct {
	experiment string
	datasets   []S
	paperSize  func(S) int
	build      func(S, engine.Shard) F
	scan       func(F) R
	counts     func(F, R) shardCounts
	newResult  func(S) R
	merge      func(*R, R)
	scanned    func(R) int
	reference  func(context.Context, measure.Config) ([]R, error)
}

var resolverScan = scanKind[measure.ResolverDatasetSpec, *measure.ResolverFleet, measure.ResolverScanResult]{
	experiment: "table3",
	datasets:   measure.Table3Datasets(),
	paperSize:  func(s measure.ResolverDatasetSpec) int { return s.PaperSize },
	build:      measure.NewResolverFleetShard,
	scan:       measure.ScanResolverFleet,
	counts:     resolverCounts,
	newResult: func(s measure.ResolverDatasetSpec) measure.ResolverScanResult {
		return measure.ResolverScanResult{Spec: s}
	},
	merge:   (*measure.ResolverScanResult).Merge,
	scanned: func(r measure.ResolverScanResult) int { return r.Scanned },
	reference: func(ctx context.Context, cfg measure.Config) ([]measure.ResolverScanResult, error) {
		_, res, err := measure.Table3Run(ctx, cfg)
		return res, err
	},
}

var domainScan = scanKind[measure.DomainDatasetSpec, *measure.DomainFleet, measure.DomainScanResult]{
	experiment: "table4",
	datasets:   measure.Table4Datasets(),
	paperSize:  func(s measure.DomainDatasetSpec) int { return s.PaperSize },
	build:      measure.NewDomainFleetShard,
	scan:       measure.ScanDomainFleet,
	counts:     domainCounts,
	newResult:  func(s measure.DomainDatasetSpec) measure.DomainScanResult { return measure.DomainScanResult{Spec: s} },
	merge:      (*measure.DomainScanResult).Merge,
	scanned:    func(r measure.DomainScanResult) int { return r.Scanned },
	reference: func(ctx context.Context, cfg measure.Config) ([]measure.DomainScanResult, error) {
		_, res, err := measure.Table4Run(ctx, cfg)
		return res, err
	},
}

// shardCounts are the work counters one fleet shard's layers export as
// public fields, read after the shard's scan.
type shardCounts struct {
	items, truthAgree                  uint64
	delivered, dropped, icmpSuppressed uint64
	upstream, tcpFallbacks, timeouts   uint64
	responses, rateDropped, truncated  uint64
}

func (c *shardCounts) add(o shardCounts) {
	c.items += o.items
	c.truthAgree += o.truthAgree
	c.delivered += o.delivered
	c.dropped += o.dropped
	c.icmpSuppressed += o.icmpSuppressed
	c.upstream += o.upstream
	c.tcpFallbacks += o.tcpFallbacks
	c.timeouts += o.timeouts
	c.responses += o.responses
	c.rateDropped += o.rateDropped
	c.truncated += o.truncated
}

func membershipBits(sub, sad, frag bool) uint8 {
	var b uint8
	if sub {
		b |= 1
	}
	if sad {
		b |= 2
	}
	if frag {
		b |= 4
	}
	return b
}

func hostCounts(c *shardCounts, hosts ...*netsim.Host) {
	for _, h := range hosts {
		c.icmpSuppressed += h.ICMPSuppressed
	}
}

func resolverCounts(f *measure.ResolverFleet, r measure.ResolverScanResult) shardCounts {
	c := shardCounts{items: uint64(len(f.Resolvers)), delivered: f.Net.Delivered, dropped: f.Net.Dropped,
		responses: f.TestSrv.Responses, rateDropped: f.TestSrv.RateDropped, truncated: f.TestSrv.Truncated}
	hostCounts(&c, f.Prober, f.Prober2, f.TestNS)
	for k, sr := range f.Resolvers {
		hostCounts(&c, sr.Host)
		c.upstream += sr.Resolver.UpstreamQueries
		c.tcpFallbacks += sr.Resolver.TCPFallbacks
		c.timeouts += sr.Resolver.Timeouts
		if k < len(r.Membership) && r.Membership[k] == membershipBits(sr.TruthSubPrefix, sr.TruthSadDNS, sr.TruthFrag) {
			c.truthAgree++
		}
	}
	return c
}

func domainCounts(f *measure.DomainFleet, r measure.DomainScanResult) shardCounts {
	c := shardCounts{items: uint64(len(f.Domains)), delivered: f.Net.Delivered, dropped: f.Net.Dropped}
	hostCounts(&c, f.Prober, f.Prober2)
	for k, d := range f.Domains {
		hostCounts(&c, d.NSHost)
		c.responses += d.Server.Responses
		c.rateDropped += d.Server.RateDropped
		c.truncated += d.Server.Truncated
		if k < len(r.Membership) && r.Membership[k] == membershipBits(d.TruthSubPrefix, d.TruthRateLimit, d.TruthFragAny) {
			c.truthAgree++
		}
	}
	return c
}

// scanWorkload runs a registered population scan at a fixed sample cap.
// The untraced pass is the registry call a user makes; the traced pass
// rebuilds the same datasets shard by shard through the engine and the
// measure layer, with spans around each call.
type scanWorkload[S, F, R any] struct {
	kind      scanKind[S, F, R]
	seed      int64
	sampleCap int
	shardSize int
	workers   int

	// Set by prepareTrace: the reference results the traced rebuild
	// must equal, and the report whose rendering the traced pass times.
	ref    []R
	refRep *report.Report
}

func newScanWorkload[S, F, R any](kind scanKind[S, F, R], seed int64, sampleCap, shardSize, workers int) *scanWorkload[S, F, R] {
	return &scanWorkload[S, F, R]{kind: kind, seed: seed, sampleCap: sampleCap, shardSize: shardSize, workers: workers}
}

func (w *scanWorkload[S, F, R]) spec(seed int64) report.Spec {
	return report.Spec{SampleCap: w.sampleCap, Seed: seed, Parallelism: w.workers, ShardSize: w.shardSize}
}

// size is a dataset's sampled population: the cap, or the paper's
// size when that is smaller.
func (w *scanWorkload[S, F, R]) size(s S) int {
	return min(w.sampleCap, w.kind.paperSize(s))
}

func (w *scanWorkload[S, F, R]) items() int {
	n := 0
	for _, s := range w.kind.datasets {
		n += w.size(s)
	}
	return n
}

func (w *scanWorkload[S, F, R]) probe(ctx context.Context, ready func()) error {
	ready()
	return nil
}

func (w *scanWorkload[S, F, R]) pass(ctx context.Context, k int) passStats {
	st := passStats{items: w.items(), ops: len(w.kind.datasets)}
	var rep *report.Report
	var err error
	st.wall, st.cpu = timed(func() { rep, err = report.Run(ctx, w.kind.experiment, w.spec(passSeed(w.seed, k))) })
	st.requestsMS = []float64{msOf(st.wall)}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.kind.experiment, err)
		st.failed = st.ops
		return st
	}
	st.failed = w.checkReport(rep)
	return st
}

// checkReport counts the datasets whose report row is missing or whose
// sampled population differs from the cap: the report must hold one
// row per dataset, in dataset order.
func (w *scanWorkload[S, F, R]) checkReport(rep *report.Report) int {
	if len(rep.Sections) != 1 {
		fmt.Fprintf(os.Stderr, "%s: %d sections, want 1\n", w.kind.experiment, len(rep.Sections))
		return len(w.kind.datasets)
	}
	sec := rep.Sections[0]
	col := columnIndex(sec, "Sampled")
	failed := 0
	for i, s := range w.kind.datasets {
		if i >= len(sec.Rows) || col < 0 || sec.Rows[i][col] != int64(w.size(s)) {
			fmt.Fprintf(os.Stderr, "%s: dataset %d: row missing or sampled size wrong\n", w.kind.experiment, i)
			failed++
		}
	}
	if len(sec.Rows) != len(w.kind.datasets) {
		fmt.Fprintf(os.Stderr, "%s: %d rows, want %d\n", w.kind.experiment, len(sec.Rows), len(w.kind.datasets))
		failed = len(w.kind.datasets)
	}
	return failed
}

func (w *scanWorkload[S, F, R]) prepareTrace(ctx context.Context) error {
	cfg := measure.ConfigFromSpec(w.spec(w.seed))
	ref, err := w.kind.reference(ctx, cfg)
	if err != nil {
		return err
	}
	w.ref = ref
	w.refRep, err = report.Run(ctx, w.kind.experiment, w.spec(w.seed))
	return err
}

type scanShard[R any] struct {
	result R
	counts shardCounts
}

// tracedPass rebuilds every dataset through engine.RunWorkersCtx with
// the seed plus the dataset index, as the registered experiment does,
// and checks the merged results equal the reference run's.
func (w *scanWorkload[S, F, R]) tracedPass(ctx context.Context, tr *tracer) (passStats, metricSet) {
	st := passStats{items: w.items(), ops: len(w.kind.datasets)}
	var total shardCounts
	var workerIDs atomic.Int64
	pass := tr.reserve("pass", -1)
	cpu0 := cpuTime()
	for i, spec := range w.kind.datasets {
		job := engine.Job{Name: fmt.Sprint(i), Items: w.size(spec), ShardSize: w.shardSize,
			Seed: w.seed + int64(i), Parallelism: w.workers}
		parts, err := engine.RunWorkersCtx(ctx, job,
			func() int { return int(workerIDs.Add(1)) },
			func(worker int, sh engine.Shard) scanShard[R] {
				t0 := tr.now()
				f := w.kind.build(spec, sh)
				t1 := tr.now()
				r := w.kind.scan(f)
				t2 := tr.now()
				c := w.kind.counts(f, r)
				unit := tr.add("engine.unit", worker, pass, t0, tr.now())
				tr.add("measure.build", worker, unit, t0, t1)
				tr.add("measure.scan", worker, unit, t1, t2)
				return scanShard[R]{r, c}
			})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: dataset %d: %v\n", w.kind.experiment, i, err)
			st.failed++
			continue
		}
		res := w.kind.newResult(spec)
		for _, p := range parts {
			w.kind.merge(&res, p.result)
			total.add(p.counts)
		}
		if w.kind.scanned(res) != w.size(spec) || i >= len(w.ref) || !reflect.DeepEqual(res, w.ref[i]) {
			fmt.Fprintf(os.Stderr, "%s: dataset %d: traced rebuild differs from the reference run\n", w.kind.experiment, i)
			st.failed++
		}
	}
	tr.finish(pass)
	st.cpu = cpuTime() - cpu0
	st.wall = tr.span(pass).interval().dur()
	st.requestsMS = []float64{msOf(st.wall)}

	m := metricSet{}
	unitMetrics(m, tr, pass, w.workers)
	items := float64(total.items)
	secs := st.wall.Seconds()
	m["measure.build_ms_per_kitem"] = ratio(sumMS(tr.under(pass, "measure.build")), items/1000)
	m["measure.scan_ms_per_kitem"] = ratio(sumMS(tr.under(pass, "measure.scan")), items/1000)
	m["measure.truth_agreement"] = ratio(float64(total.truthAgree), items)
	m["netsim.delivered_per_item"] = ratio(float64(total.delivered), items)
	m["netsim.dropped_per_item"] = ratio(float64(total.dropped), items)
	m["netsim.icmp_suppressed_per_item"] = ratio(float64(total.icmpSuppressed), items)
	m["netsim.delivered_per_s"] = ratio(float64(total.delivered), secs)
	m["resolver.upstream_queries_per_item"] = ratio(float64(total.upstream), items)
	m["resolver.tcp_fallbacks_per_item"] = ratio(float64(total.tcpFallbacks), items)
	m["resolver.timeouts_per_item"] = ratio(float64(total.timeouts), items)
	m["dnssrv.responses_per_item"] = ratio(float64(total.responses), items)
	m["dnssrv.rate_dropped_per_item"] = ratio(float64(total.rateDropped), items)
	m["dnssrv.truncated_per_item"] = ratio(float64(total.truncated), items)
	m["dnssrv.responses_per_s"] = ratio(float64(total.responses), secs)
	m["report.render_ms"] = renderMS(w.refRep)
	return st, m
}

// columnIndex returns the index of the named column, or -1.
func columnIndex(sec *report.Section, name string) int {
	for i, c := range sec.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}
