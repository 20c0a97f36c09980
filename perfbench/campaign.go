package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"crosslayer/internal/campaign"
	"crosslayer/internal/report"
	"crosslayer/internal/stats"
)

// sweepFilter is campaign-sweep's slice of the matrix: every method,
// two victims, two resolver profiles, the rank-1 defense lattice (the
// undefended baseline and each single defense), chain depths 0 and 1,
// the stub-adjacent attacker, and plaintext versus DNS-over-TLS
// upstreams. sweep-service draws its requests from the same axes.
var sweepFilter = campaign.Filter{
	Victims:     []string{"web", "ntp"},
	Profiles:    []string{"bind", "unbound"},
	ChainDepths: []string{"0", "1"},
	Placements:  []string{"stub"},
	Transports:  []string{"udp", "dot"},
}

const sweepLatticeRank = 1

// campaignWorkload runs the registered campaign experiment on a filter
// (sweepFilter for campaign-sweep) at the default trial count.
type campaignWorkload struct {
	seed    int64
	workers int
	filter  campaign.Filter
	cells   int
	trials  int

	// refText is an untraced report's text, which the traced pass's
	// report must reproduce.
	refText []byte
}

func newCampaignWorkload(seed int64, workers int, filter campaign.Filter) (*campaignWorkload, error) {
	cells, err := campaign.CellsAtRank(filter, sweepLatticeRank)
	if err != nil {
		return nil, err
	}
	return &campaignWorkload{seed: seed, workers: workers, filter: filter, cells: len(cells), trials: campaign.DefaultTrials}, nil
}

func (w *campaignWorkload) spec(seed int64) report.Spec {
	f := w.filter
	return report.Spec{Seed: seed, Parallelism: w.workers, Methods: f.Methods, Victims: f.Victims,
		Profiles: f.Profiles, ChainDepths: f.ChainDepths, Placements: f.Placements,
		Transports: f.Transports, LatticeRank: sweepLatticeRank}
}

func (w *campaignWorkload) probe(ctx context.Context, ready func()) error {
	ready()
	return nil
}

func (w *campaignWorkload) pass(ctx context.Context, k int) passStats {
	st := passStats{items: w.cells * w.trials, ops: w.cells}
	var rep *report.Report
	var err error
	st.wall, st.cpu = timed(func() { rep, err = report.Run(ctx, "campaign", w.spec(passSeed(w.seed, k))) })
	st.requestsMS = []float64{msOf(st.wall)}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		st.failed = st.ops
		return st
	}
	st.failed = checkMatrix(rep, w.cells, w.trials)
	return st
}

// checkMatrix counts the cells of a campaign report that fail the
// output check: the matrix must hold one row per planned cell, and
// every cell must have run all its trials.
func checkMatrix(rep *report.Report, cells, trials int) int {
	sec := rep.Section("matrix")
	if sec == nil || len(sec.Rows) != cells {
		fmt.Fprintf(os.Stderr, "campaign: matrix missing or not %d rows\n", cells)
		return cells
	}
	col := columnIndex(sec, "Poisoned")
	if col < 0 {
		fmt.Fprintln(os.Stderr, "campaign: matrix has no Poisoned column")
		return cells
	}
	failed := 0
	for i, row := range sec.Rows {
		if c, ok := row[col].(stats.Counter); !ok || c.Total != trials {
			fmt.Fprintf(os.Stderr, "campaign: matrix row %d did not run %d trials\n", i, trials)
			failed++
		}
	}
	return failed
}

func (w *campaignWorkload) prepareTrace(ctx context.Context) error {
	rep, err := report.Run(ctx, "campaign", w.spec(w.seed))
	if err != nil {
		return err
	}
	w.refText, err = report.Render(rep, "text")
	return err
}

// spanCache is a campaign.CellCache that never hits: the engine calls
// Lookup just before it computes a cell and Store just after, so the
// interval between the two is the cell's span.
type spanCache struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	open   map[string]time.Duration
}

func (c *spanCache) Lookup(key string) (campaign.CellResult, bool) {
	now := c.tr.now()
	c.mu.Lock()
	c.open[key] = now
	c.mu.Unlock()
	return campaign.CellResult{}, false
}

func (c *spanCache) Store(key string, _ campaign.CellResult) {
	end := c.tr.now()
	c.mu.Lock()
	start := c.open[key]
	delete(c.open, key)
	c.mu.Unlock()
	c.tr.add("engine.unit", 0, c.parent, start, end)
}

// tracedPass runs the sweep through campaign.RunContext with the
// always-miss spanCache, and checks the cells and their report against
// the untraced run's.
func (w *campaignWorkload) tracedPass(ctx context.Context, tr *tracer) (passStats, metricSet) {
	st := passStats{items: w.cells * w.trials, ops: w.cells}
	pass := tr.reserve("pass", -1)
	cpu0 := cpuTime()
	cfg := campaign.ConfigFromSpec(w.spec(w.seed))
	cfg.Cache = &spanCache{tr: tr, parent: pass, open: map[string]time.Duration{}}
	cells, err := campaign.RunContext(ctx, cfg)
	tr.finish(pass)
	st.cpu = cpuTime() - cpu0
	st.wall = tr.span(pass).interval().dur()
	st.requestsMS = []float64{msOf(st.wall)}
	m := metricSet{}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		st.failed = st.ops
		return st, m
	}
	rep := campaign.Report(cells, w.spec(w.seed))
	t0 := time.Now()
	text, err := report.Render(rep, "text")
	m["report.render_ms"] = msOf(time.Since(t0))
	if len(cells) != w.cells {
		fmt.Fprintf(os.Stderr, "campaign: %d cells, want %d\n", len(cells), w.cells)
		st.failed = st.ops
	} else if err != nil || !bytes.Equal(text, w.refText) {
		fmt.Fprintln(os.Stderr, "campaign: traced report differs from the untraced one")
		st.failed = st.ops
	} else {
		st.failed = checkMatrix(rep, w.cells, w.trials)
	}

	unitMetrics(m, tr, pass, w.workers)
	units := ms(tr.children(pass, "engine.unit"))
	m["campaign.cell_ms_p50"] = median(units)
	m["campaign.cell_ms_p90"] = percentile(units, 0.9)
	var trials, packets, iterations, seconds float64
	var poisoned, impact stats.Counter
	for _, c := range cells {
		trials += float64(c.Trials)
		packets += c.Packets.Mean() * float64(c.Packets.Len())
		iterations += c.Iterations.Mean() * float64(c.Iterations.Len())
		seconds += c.Seconds.Mean() * float64(c.Seconds.Len())
		poisoned = poisoned.Plus(c.Poisoned)
		impact = impact.Plus(c.Impact)
	}
	m["core.packets_per_trial"] = ratio(packets, trials)
	m["core.iterations_per_trial"] = ratio(iterations, trials)
	m["core.virtual_s_per_trial"] = ratio(seconds, trials)
	m["campaign.poisoned_share"] = poisoned.Frac()
	m["campaign.impact_share"] = impact.Frac()
	return st, m
}
