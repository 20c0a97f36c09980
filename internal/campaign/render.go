package campaign

import (
	"slices"
	"strings"

	"crosslayer/internal/report"
	"crosslayer/internal/stats"
)

// matrix builds the full per-cell success-rate/cost matrix: the
// campaign's extension of Tables 1 and 6. One column per axis, then
// Poisoned (the chain cache ground truth over the cell's trials),
// Impact (the application-level outcome check) and per-trial
// percentiles of attack rounds, attacker packets and virtual attack
// time. An axis with a Default drops its column when every row holds
// the default, so all-canonical sweeps keep the historical byte-exact
// shape.
func matrix(results []CellResult) *report.Section {
	var shown []*Axis
	var names []string
	for i := range axes {
		a := &axes[i]
		if a.Default == "" || slices.ContainsFunc(results, func(r CellResult) bool { return a.value(&r) != a.Default }) {
			shown = append(shown, a)
			names = append(names, a.Column)
		}
	}
	cols := append(report.StrCols(names...),
		report.Col("Poisoned", report.KindRatio),
		report.Col("Impact", report.KindRatio),
		report.Col("Iter p50", report.KindRound),
		report.Col("Pkts p50", report.KindRound),
		report.Col("Time p50", report.KindSeconds),
		report.Col("Time p95", report.KindSeconds))
	sec := report.Table("matrix",
		"Campaign matrix: method × victim × profile × defense × chain depth × placement × transport",
		cols...)
	for i := range results {
		r := &results[i]
		row := make([]any, 0, len(cols))
		for _, a := range shown {
			row = append(row, a.value(r))
		}
		row = append(row,
			r.Poisoned, r.Impact,
			r.Iterations.Quantile(0.5),
			r.Packets.Quantile(0.5),
			r.Seconds.Quantile(0.5),
			r.Seconds.Quantile(0.95))
		sec.Add(row...)
	}
	return sec
}

// pivot is one method × dimension view of a sweep: the poisoning rate
// aggregated over every axis it does not name, one row per distinct
// combination of the row axes and one column per value of the column
// axis.
type pivot struct {
	name, title string
	// rows and col name axes by their Column header.
	rows []string
	col  string
	// kind is the rate format: KindRatio, or KindRatioCI for a rate
	// with its 95% Wilson half-width.
	kind report.Kind
	// prefix labels the value columns ("depth " for "depth 2").
	prefix string
}

// pivots are the campaign's aggregate views, in report order.
var pivots = []pivot{
	// Which defense stops which method.
	{name: "summary", rows: []string{"Method"}, col: "Defense", kind: report.KindRatio,
		title: "Campaign summary: poisoning success by method × defense (over victims × profiles × depths × placements)"},
	// Does a forwarder chain make the attack easier, and from where.
	{name: "depth", rows: []string{"Method", "Placement"}, col: "Depth", kind: report.KindRatio, prefix: "depth ",
		title: "Campaign chains: poisoning success by method × placement × chain depth (over victims × profiles × defenses)"},
	// Which attacks survive which upstream transports, and what a
	// plaintext front hop gives back.
	{name: "transport", rows: []string{"Method"}, col: "Transport", kind: report.KindRatio,
		title: "Campaign transports: poisoning success by method × upstream transport (over victims × profiles × defenses × depths × placements)"},
	// What fraction of a deployed population each attack compromises,
	// and how tightly the per-cell sample sizes pin that down.
	{name: "deploy", rows: []string{"Method"}, col: "Dataset", kind: report.KindRatioCI,
		title: "Campaign deployments: poisoning rate ±95% CI by method × deployment dataset (over victims × profiles × defenses × depths × placements × transports)"},
}

// section renders the pivot over results.
func (p pivot) section(results []CellResult) *report.Section {
	t := aggregate(results, p.rows, p.col)
	cols := report.StrCols(p.rows...)
	for _, c := range t.cols {
		cols = append(cols, report.Col(p.prefix+c, p.kind))
	}
	sec := report.Table(p.name, p.title, cols...)
	for ri, vals := range t.rows {
		row := make([]any, 0, len(cols))
		for _, v := range vals {
			row = append(row, v)
		}
		for ci := range t.cols {
			row = append(row, t.at(ri, ci))
		}
		sec.Add(row...)
	}
	return sec
}

// rates is a pivot's aggregation: the Poisoned counters summed per
// (row, column), with rows and columns in first-seen order. Run and
// the cache both return cells in plan order, so first-seen order is
// registry order.
type rates struct {
	// rows holds each row's row-axis values; cols the column-axis
	// values.
	rows   [][]string
	cols   []string
	rowAt  map[string]int
	colAt  map[string]int
	counts map[[2]int]stats.Counter
}

// aggregate folds results into rates over the named row axes and
// column axis.
func aggregate(results []CellResult, rowCols []string, colName string) *rates {
	rowAxes := make([]*Axis, len(rowCols))
	for i, name := range rowCols {
		rowAxes[i] = axisByColumn(name)
	}
	colAxis := axisByColumn(colName)
	t := &rates{rowAt: map[string]int{}, colAt: map[string]int{}, counts: map[[2]int]stats.Counter{}}
	for i := range results {
		r := &results[i]
		vals := make([]string, len(rowAxes))
		for j, a := range rowAxes {
			vals[j] = a.value(r)
		}
		row := strings.Join(vals, "\x00")
		ri, ok := t.rowAt[row]
		if !ok {
			ri = len(t.rows)
			t.rowAt[row] = ri
			t.rows = append(t.rows, vals)
		}
		c := colAxis.value(r)
		ci, ok := t.colAt[c]
		if !ok {
			ci = len(t.cols)
			t.colAt[c] = ci
			t.cols = append(t.cols, c)
		}
		k := [2]int{ri, ci}
		t.counts[k] = t.counts[k].Plus(r.Poisoned)
	}
	return t
}

// at returns the summed counter of row ri and column ci.
func (t *rates) at(ri, ci int) stats.Counter { return t.counts[[2]int{ri, ci}] }
