// Command perfbench is the repository's benchmark. It runs one workload
// in this process, untraced for the end-to-end metrics or traced for
// the per-layer ones, checks every output it measures, and prints one
// JSON result as its last line of output:
//
//	perfbench --workload resolver-scan --seed 1 --seconds 20 --trace 0
//
// perfbench/run.py builds it from source and runs it from the root of
// the repository; BENCHMARK.json names the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"crosslayer/internal/engine"
	"crosslayer/internal/report"
)

// workload is one benchmark input set. A pass is the timed operation,
// repeated until the run's time is spent; every pass of a run does the
// same work, so per-item counts repeat exactly.
type workload interface {
	// probe does the workload's set-up, calls ready, and tears the
	// set-up down again.
	probe(ctx context.Context, ready func()) error
	// pass runs the timed operation once, untraced, on the inputs of
	// pass k (see passSeed), and checks its outputs.
	pass(ctx context.Context, k int) passStats
	// prepareTrace runs once, untimed, before the traced passes.
	prepareTrace(ctx context.Context) error
	// tracedPass runs the operation on the inputs of pass 0, with
	// spans around the calls into each layer, and returns the pass's
	// per-layer metrics.
	tracedPass(ctx context.Context, tr *tracer) (passStats, metricSet)
}

// passStats is what one pass did and what it cost.
type passStats struct {
	items       int // resolvers, domains, trials or delivered cells
	ops, failed int // operations attempted, and those whose checks failed
	wall, cpu   time.Duration
	requestsMS  []float64 // latency of each request the pass made
}

// passSeed is the population seed of pass k of a run: the workload
// seed itself for the first pass, then seeds derived from it. Untraced
// passes step through them, so a run's medians cover several
// populations and depend less on the one the workload seed draws;
// traced passes all use pass 0, so their work counts repeat exactly.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return engine.DeriveSeed(seed, k)
}

// Workload sizes. The scans use sample caps small enough that a pass
// takes a few seconds, and shard counts (8 per resolver dataset, at
// most 4 per domain dataset) below the engine's dispatch burst, which
// is what makes the dispatch defect visible.
const (
	resolverScanCap = 2000
	domainScanCap   = 200
	domainShardSize = 64
	setupProbes     = 15
	runDeadline     = 150 * time.Second
)

var workloadNames = []string{"resolver-scan", "domain-scan", "campaign-sweep", "sweep-service"}

func newWorkload(name string, seed int64, workers int) (workload, error) {
	switch name {
	case "resolver-scan":
		return newScanWorkload(resolverScan, seed, resolverScanCap, 0, workers), nil
	case "domain-scan":
		return newScanWorkload(domainScan, seed, domainScanCap, domainShardSize, workers), nil
	case "campaign-sweep":
		return newCampaignWorkload(seed, workers, sweepFilter)
	case "sweep-service":
		return newServiceWorkload(seed, workers)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run and per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "do the workload's set-up, print \"ready\", tear it down and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	workers := runtime.NumCPU()
	w, err := newWorkload(o.workload, o.seed, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.setupOnly {
		err := w.probe(ctx, func() { fmt.Println("ready") })
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, info, err := run(ctx, o, w, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{"env": currentEnvironment(o.workload, o.seed, workers), "info": info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures the workload and returns the result with the sample
// counts behind it.
func run(ctx context.Context, o options, w workload, workers int) (result, map[string]any, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	info := map[string]any{}
	steal0, total0 := hostTicks()
	defer func() {
		steal1, total1 := hostTicks()
		info["host_steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	}()
	var m metricSet
	var passes []passStats
	var err error
	if o.trace {
		m, passes, err = tracedRun(ctx, o, w, workers, budget, info)
	} else {
		m, passes, err = untracedRun(ctx, w, budget, info)
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res, info, nil
}

func untracedRun(ctx context.Context, w workload, budget time.Duration, info map[string]any) (metricSet, []passStats, error) {
	setups, err := probeSetups(ctx)
	if err != nil {
		return nil, nil, err
	}
	passes := measurePasses(budget, 1, func(k int) passStats { return w.pass(ctx, k) })
	var rates, cpuPerItem, requests []float64
	attempted, failed := 0, 0
	for _, p := range passes {
		rates = append(rates, ratio(float64(p.items), p.wall.Seconds()))
		cpuPerItem = append(cpuPerItem, ratio(msOf(p.cpu), float64(p.items)))
		requests = append(requests, p.requestsMS...)
		attempted += p.ops
		failed += p.failed
	}
	info["passes"] = len(passes)
	info["request_samples"] = len(requests)
	info["setup_samples"] = len(setups)
	return metricSet{
		"setup_s":         median(setups),
		"items_per_s":     median(rates),
		"cpu_ms_per_item": median(cpuPerItem),
		"peak_rss_mb":     peakRSSMB(),
		"ok_share":        1 - ratio(float64(failed), float64(attempted)),
		"request_ms_p50":  median(requests),
		"request_ms_p90":  percentile(requests, 0.9),
	}, passes, nil
}

// tracedRun alternates untraced and traced passes, so both kinds see
// the same host conditions and their throughput gap is the tracing
// overhead. The untraced passes also give the Go runtime's allocation
// and GC figures; the traced ones run under the CPU profiler.
func tracedRun(ctx context.Context, o options, w workload, workers int, budget time.Duration, info map[string]any) (metricSet, []passStats, error) {
	if err := w.prepareTrace(ctx); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var plain, traced []passStats
	var sets []metricSet
	var rt runtimeStats
	cpuNS := map[string]int64{}
	samples := 0
	var profErr error
	all := measurePasses(budget, 2, func(k int) passStats {
		if k%2 == 0 {
			before := readRuntime()
			st := w.pass(ctx, 0)
			rt = rt.plus(readRuntime().minus(before))
			plain = append(plain, st)
			return st
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			profErr = err
		}
		st, m := w.tracedPass(ctx, tr)
		pprof.StopCPUProfile()
		byLayer, n, err := foldProfile(prof.Bytes())
		if err != nil {
			profErr = err
		}
		for l, v := range byLayer {
			cpuNS[l] += v
		}
		samples += n
		sets = append(sets, m)
		traced = append(traced, st)
		return st
	})
	if profErr != nil {
		return nil, nil, profErr
	}

	m := metricSet{}
	for _, d := range perLayer {
		var vs []float64
		for _, s := range sets {
			if v, ok := s[d.name]; ok {
				vs = append(vs, v)
			}
		}
		m[d.name] = median(vs)
	}
	items := 0
	for _, p := range plain {
		items += p.items
	}
	m["go.allocs_per_item"] = ratio(rt.allocs, float64(items))
	m["go.alloc_bytes_per_item"] = ratio(rt.allocBytes, float64(items))
	m["go.gc_cpu_share"] = ratio(rt.gcCPU, rt.gcCPU+rt.userCPU)

	var total int64
	for _, v := range cpuNS {
		total += v
	}
	for _, l := range layers {
		m["cpu."+l] = ratio(float64(cpuNS[l]), float64(total))
	}
	plainRate, tracedRate := throughput(plain), throughput(traced)
	m["trace.items_per_s"] = tracedRate
	m["trace.overhead_share"] = 1 - ratio(tracedRate, plainRate)

	info["untraced_passes"] = len(plain)
	info["traced_passes"] = len(traced)
	info["untraced_items_per_s"] = plainRate
	info["profile_samples"] = samples
	if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
		path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		info["spans"] = path
	}
	return m, all, nil
}

// throughput is the median items per second over passes.
func throughput(passes []passStats) float64 {
	var rates []float64
	for _, p := range passes {
		rates = append(rates, ratio(float64(p.items), p.wall.Seconds()))
	}
	return median(rates)
}

// measurePasses runs pass(0), pass(1), ... until the budget is spent,
// stopping early rather than starting a pass the budget cannot fit; it
// always runs at least atLeast passes.
func measurePasses(budget time.Duration, atLeast int, pass func(k int) passStats) []passStats {
	start := time.Now()
	var out []passStats
	for {
		t0 := time.Now()
		out = append(out, pass(len(out)))
		if len(out) >= atLeast && time.Since(start)+time.Since(t0) > budget {
			return out
		}
	}
}

// probeSetups starts this program setupProbes times with --setup-only
// and returns the seconds from each start until it printed "ready":
// process start, package initialisation, and the workload's own
// set-up.
func probeSetups(ctx context.Context) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"--setup-only"}, os.Args[1:]...)
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		io.Copy(io.Discard, stdout)
		waitErr := cmd.Wait()
		if readErr != nil || line != "ready\n" || waitErr != nil {
			return nil, fmt.Errorf("set-up probe: %v", errors.Join(readErr, waitErr))
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// timed runs fn and returns its wall time and the process CPU time it
// used.
func timed(fn func()) (wall, cpu time.Duration) {
	c0, t0 := cpuTime(), time.Now()
	fn()
	return time.Since(t0), cpuTime() - c0
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeStats are cumulative counters of the Go runtime.
type runtimeStats struct {
	allocs, allocBytes, gcCPU, userCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return runtimeStats{allocs: v[0], allocBytes: v[1], gcCPU: v[2], userCPU: v[3]}
}

func (a runtimeStats) plus(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.userCPU + b.userCPU}
}

func (a runtimeStats) minus(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.userCPU - b.userCPU}
}

// unitMetrics fills the dispatch metrics from the engine.unit spans
// under a pass span.
func unitMetrics(m metricSet, tr *tracer, pass, workers int) {
	p := tr.span(pass).interval()
	units := tr.children(pass, "engine.unit")
	d := ms(units)
	m["engine.busy_share"] = busyShare(units, workers, p.dur())
	m["engine.gap_share"] = ratio(float64(selfTime(p, units)), float64(p.dur()))
	m["engine.units"] = float64(len(units))
	m["engine.unit_ms_p50"] = median(d)
	m["engine.unit_ms_max"] = maxOf(d)
}

// renderMS times report.Render of rep as text, the form of the
// golden artifacts.
func renderMS(rep *report.Report) float64 {
	t0 := time.Now()
	if _, err := report.Render(rep, "text"); err != nil {
		return 0
	}
	return msOf(time.Since(t0))
}
