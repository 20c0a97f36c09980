package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"crosslayer/internal/campaign"
	"crosslayer/internal/report"
	"crosslayer/internal/serve"
)

// sweepRequest is one /run/campaign call: a sub-filter of sweepFilter.
// A nil defenseSets asks for the whole rank-1 defense lattice.
type sweepRequest struct {
	methods, victims, profiles, defenseSets, depths, transports []string
}

func (r sweepRequest) filter() campaign.Filter {
	return campaign.Filter{Methods: r.methods, Victims: r.victims, Profiles: r.profiles,
		DefenseSets: r.defenseSets, ChainDepths: r.depths, Placements: sweepFilter.Placements,
		Transports: r.transports}
}

// query encodes the request as /run query parameters; url.Values
// sorts its keys, so equal requests give equal strings.
func (r sweepRequest) query(seed int64, workers int) string {
	v := url.Values{}
	v.Set("seed", strconv.FormatInt(seed, 10))
	v.Set("parallel", strconv.Itoa(workers))
	v.Set("lattice-rank", strconv.Itoa(sweepLatticeRank))
	v.Set("trials", strconv.Itoa(serviceTrials))
	v.Set("placement", strings.Join(sweepFilter.Placements, ","))
	for key, keys := range map[string][]string{"methods": r.methods, "victims": r.victims,
		"profiles": r.profiles, "defense-sets": r.defenseSets, "chain-depths": r.depths,
		"transports": r.transports} {
		if len(keys) > 0 {
			v.Set(key, strings.Join(keys, ","))
		}
	}
	return v.Encode()
}

// Shape of the request sequence. Blocks cover every cell of
// campaign-sweep once, so each pass computes every cell exactly once
// whatever the order; slices overlap blocks and each other; repeats
// are exact copies of earlier requests. The counts are fixed, so the
// cells delivered per pass, and with them the cache hit share, do not
// depend on the seed: the seed picks only which slices and repeats
// occur and in what order.
//
// Requests run one trial per cell, a third of campaign-sweep's: the
// service's own costs (cache, NDJSON, report JSON, checkpoint) are a
// larger share of each pass, and a pass is short enough to repeat
// several times in a run.
const (
	sliceRequests  = 36
	repeatRequests = 36
	serviceTrials  = 1
)

// sweepAxes lists the keys of each axis of sweepFilter, in registry
// order.
type sweepAxes struct {
	methods, victims, profiles, defenseSets, depths, transports []string
}

func newSweepAxes() (sweepAxes, error) {
	cells, err := campaign.CellsAtRank(sweepFilter, sweepLatticeRank)
	if err != nil {
		return sweepAxes{}, err
	}
	a := sweepAxes{victims: sweepFilter.Victims, profiles: sweepFilter.Profiles,
		depths: sweepFilter.ChainDepths, transports: sweepFilter.Transports}
	for _, m := range campaign.Methods() {
		a.methods = append(a.methods, m.Key)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if k := c.Defenses.Key; !seen[k] {
			seen[k] = true
			a.defenseSets = append(a.defenseSets, k)
		}
	}
	return a, nil
}

// pickN returns n distinct keys of axis, chosen by rng, in axis order.
func pickN(rng *rand.Rand, axis []string, n int) []string {
	chosen := rng.Perm(len(axis))[:n]
	var out []string
	for i, k := range axis {
		for _, c := range chosen {
			if c == i {
				out = append(out, k)
			}
		}
	}
	return out
}

// requestSequence builds sweep-service's closed-loop request sequence
// from the workload seed.
func requestSequence(seed int64, a sweepAxes) []sweepRequest {
	rng := rand.New(rand.NewSource(seed))
	var blocks, slices []sweepRequest
	for _, m := range a.methods {
		for _, v := range a.victims {
			for _, p := range a.profiles {
				for _, d := range a.depths {
					for _, t := range a.transports {
						blocks = append(blocks, sweepRequest{methods: []string{m}, victims: []string{v},
							profiles: []string{p}, depths: []string{d}, transports: []string{t}})
					}
				}
			}
		}
	}
	for i := 0; i < sliceRequests; i++ {
		slices = append(slices, sweepRequest{
			methods:     pickN(rng, a.methods, 2),
			victims:     pickN(rng, a.victims, 1),
			profiles:    a.profiles,
			defenseSets: pickN(rng, a.defenseSets, 1),
			depths:      pickN(rng, a.depths, 1),
			transports:  pickN(rng, a.transports, 1),
		})
	}
	seq := append(append([]sweepRequest(nil), blocks...), slices...)
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	isBlock := func(r sweepRequest) bool { return r.defenseSets == nil }
	for i := 0; i < repeatRequests; i++ {
		// Alternate block and slice repeats so the repeated cell
		// count is fixed too.
		var of []int
		for j, r := range seq {
			if isBlock(r) == (i%2 == 0) {
				of = append(of, j)
			}
		}
		orig := of[rng.Intn(len(of))]
		at := orig + 1 + rng.Intn(len(seq)-orig)
		seq = append(seq[:at], append([]sweepRequest{seq[orig]}, seq[at:]...)...)
	}
	return seq
}

// servicePlan is one pass's request sequence, as query strings with
// the number of cells each request covers.
type servicePlan struct {
	queries []string
	cells   []int
}

// newServicePlan encodes seq with seed as every request's campaign
// seed.
func newServicePlan(seed int64, workers int, seq []sweepRequest) (*servicePlan, error) {
	p := &servicePlan{}
	for _, r := range seq {
		cells, err := campaign.CellsAtRank(r.filter(), sweepLatticeRank)
		if err != nil {
			return nil, err
		}
		p.queries = append(p.queries, r.query(seed, workers))
		p.cells = append(p.cells, len(cells))
	}
	return p, nil
}

// serviceWorkload drives an in-process sweep server on loopback with
// one closed-loop client: the next request is sent once the previous
// one's terminal event has arrived. Every pass starts a fresh server
// with an empty cache and a checkpoint in a new temporary directory.
type serviceWorkload struct {
	seed    int64
	workers int
	axes    sweepAxes
	first   *servicePlan // pass 0, and every traced pass
}

func newServiceWorkload(seed int64, workers int) (*serviceWorkload, error) {
	axes, err := newSweepAxes()
	if err != nil {
		return nil, err
	}
	first, err := newServicePlan(seed, workers, requestSequence(seed, axes))
	if err != nil {
		return nil, err
	}
	return &serviceWorkload{seed: seed, workers: workers, axes: axes, first: first}, nil
}

// plan returns pass k's requests: the sequence and campaign seed drawn
// from passSeed.
func (w *serviceWorkload) plan(k int) (*servicePlan, error) {
	if k == 0 {
		return w.first, nil
	}
	s := passSeed(w.seed, k)
	return newServicePlan(s, w.workers, requestSequence(s, w.axes))
}

// server is one running serve.Server with its checkpoint directory.
type server struct {
	srv    *serve.Server
	dir    string
	cancel context.CancelFunc
	done   chan error
}

func (s *server) checkpoint() string { return filepath.Join(s.dir, "cells.json") }

// startServer runs serve.New and Run until the server is Ready.
func startServer(ctx context.Context) (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, done: make(chan error, 1)}
	s.srv = serve.New(serve.Config{CheckpointPath: s.checkpoint()})
	runCtx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	go func() { s.done <- s.srv.Run(runCtx) }()
	select {
	case <-s.srv.Ready():
		return s, nil
	case err := <-s.done:
		cancel()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("serve: %w", err)
	}
}

// stop cancels the server, waits for Run to return after its final
// checkpoint flush, and removes the checkpoint directory. It reports
// how long the shutdown took and, when the server computed cells,
// whether the checkpoint holding them was written.
func (s *server) stop(computed bool) (time.Duration, error) {
	t0 := time.Now()
	s.cancel()
	err := <-s.done
	d := time.Since(t0)
	if err == nil && computed {
		if fi, statErr := os.Stat(s.checkpoint()); statErr != nil || fi.Size() == 0 {
			err = fmt.Errorf("serve: no checkpoint written at shutdown")
		}
	}
	os.RemoveAll(s.dir)
	return d, err
}

func (w *serviceWorkload) probe(ctx context.Context, ready func()) error {
	s, err := startServer(ctx)
	if err != nil {
		return err
	}
	ready()
	_, err = s.stop(false)
	return err
}

// reply is what the client saw of one request.
type reply struct {
	latency, firstByte time.Duration
	hits, misses       uint64
	report             []byte
	ok                 bool
}

// streamEvent is the part of serve's NDJSON events the client reads.
type streamEvent struct {
	Event       string          `json:"event"`
	CacheHits   *uint64         `json:"cache_hits"`
	CacheMisses *uint64         `json:"cache_misses"`
	Report      json.RawMessage `json:"report"`
	Error       string          `json:"error"`
}

// do sends one request and reads its stream to the end. The reply is
// ok when the status is 200 and the stream holds exactly one terminal
// event, a report, with no error event.
func do(ctx context.Context, client *http.Client, base, query string) reply {
	var rp reply
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/run/campaign?"+query, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return rp
	}
	resp, err := client.Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return rp
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	reports, errs := 0, 0
	for sc.Scan() {
		if rp.firstByte == 0 {
			rp.firstByte = time.Since(start)
		}
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			errs++
			continue
		}
		switch ev.Event {
		case "report":
			rp.latency = time.Since(start)
			reports++
			rp.report = append([]byte(nil), ev.Report...)
			if ev.CacheHits != nil && ev.CacheMisses != nil {
				rp.hits, rp.misses = *ev.CacheHits, *ev.CacheMisses
			}
		case "error":
			fmt.Fprintf(os.Stderr, "serve: error event: %s\n", ev.Error)
			errs++
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		errs++
	}
	rp.ok = resp.StatusCode == http.StatusOK && reports == 1 && errs == 0
	if !rp.ok {
		fmt.Fprintf(os.Stderr, "serve: status %d, %d report events, %d errors\n", resp.StatusCode, reports, errs)
	}
	return rp
}

func (w *serviceWorkload) pass(ctx context.Context, k int) passStats {
	p, err := w.plan(k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return passStats{ops: 1, failed: 1}
	}
	st, _ := runPlan(ctx, p, nil)
	return st
}

func (w *serviceWorkload) prepareTrace(context.Context) error { return nil }

func (w *serviceWorkload) tracedPass(ctx context.Context, tr *tracer) (passStats, metricSet) {
	return runPlan(ctx, w.first, tr)
}

// runPlan is one pass: start a server, send the plan's requests, stop the
// server. Only the requests are timed. With a tracer it records a span
// per request and returns the service metrics.
func runPlan(ctx context.Context, p *servicePlan, tr *tracer) (passStats, metricSet) {
	st := passStats{ops: len(p.queries)}
	m := metricSet{}
	s, err := startServer(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		st.failed = st.ops
		return st, m
	}
	// One connection, reused: the client is a single closed loop.
	transport := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: transport}
	base := "http://" + s.srv.Addr()

	pass := -1
	if tr != nil {
		pass = tr.reserve("pass", -1)
	}
	first := map[string][]byte{}
	var hitMS, firstMS, reportBytes []float64
	var hits, misses uint64
	var missMS float64
	cpu0, t0 := cpuTime(), time.Now()
	for i, q := range p.queries {
		rqStart := time.Duration(0)
		if tr != nil {
			rqStart = tr.now()
		}
		rp := do(ctx, client, base, q)
		if tr != nil {
			tr.add("serve.request", 0, pass, rqStart, tr.now())
		}
		st.items += int(rp.hits + rp.misses)
		if !rp.ok || !p.checkReply(i, rp, first) {
			st.failed++
			continue
		}
		l := msOf(rp.latency)
		st.requestsMS = append(st.requestsMS, l)
		firstMS = append(firstMS, msOf(rp.firstByte))
		reportBytes = append(reportBytes, float64(len(rp.report)))
		hits += rp.hits
		misses += rp.misses
		if rp.misses == 0 {
			hitMS = append(hitMS, l)
		} else {
			missMS += l
		}
	}
	st.wall, st.cpu = time.Since(t0), cpuTime()-cpu0
	if tr != nil {
		tr.finish(pass)
	}
	transport.CloseIdleConnections()
	shutdown, err := s.stop(misses > 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		st.failed++
		st.ops++
	}

	m["engine.units"] = float64(hits + misses)
	m["serve.cache_hit_share"] = ratio(float64(hits), float64(hits+misses))
	m["serve.hit_request_ms_p50"] = median(hitMS)
	m["serve.miss_ms_per_cell"] = ratio(missMS, float64(misses))
	m["serve.first_byte_ms_p50"] = median(firstMS)
	m["serve.report_bytes_p50"] = median(reportBytes)
	m["serve.shutdown_ms"] = msOf(shutdown)
	return st, m
}

// checkReply checks one ok reply: its cache counts cover exactly the
// request's cells, its report is a full matrix of them, and a repeated
// request's report is byte for byte the first response's.
func (p *servicePlan) checkReply(i int, rp reply, first map[string][]byte) bool {
	q := p.queries[i]
	if rp.hits+rp.misses != uint64(p.cells[i]) {
		fmt.Fprintf(os.Stderr, "serve: request %d: %d hits + %d misses, want %d cells\n", i, rp.hits, rp.misses, p.cells[i])
		return false
	}
	if prev, ok := first[q]; ok {
		if !bytes.Equal(prev, rp.report) {
			fmt.Fprintf(os.Stderr, "serve: request %d: repeated report differs from the first response\n", i)
			return false
		}
		return true
	}
	first[q] = rp.report
	rep, err := report.Decode(rp.report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: request %d: %v\n", i, err)
		return false
	}
	return checkMatrix(rep, p.cells[i], serviceTrials) == 0
}
