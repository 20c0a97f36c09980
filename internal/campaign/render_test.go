package campaign_test

import (
	"strings"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
	"crosslayer/internal/report"
)

// section renders one named section of the campaign Report over res.
func section(res []campaign.CellResult, name string) *report.Section {
	return campaign.Report(res, report.Spec{}).Section(name)
}

// TestRenderEmptyResults: every section must survive a sweep that
// produced no cells (e.g. a future conditional filter) — headers only,
// no panic, no stray rows.
func TestRenderEmptyResults(t *testing.T) {
	if got := section(nil, "matrix"); len(got.Rows) != 0 || got.Text() == "" {
		t.Fatalf("empty matrix: %d rows\n%s", len(got.Rows), got.Text())
	}
	if got := section(nil, "summary"); len(got.Rows) != 0 || got.Text() == "" {
		t.Fatalf("empty summary: %d rows\n%s", len(got.Rows), got.Text())
	}
	if got := section(nil, "depth"); len(got.Rows) != 0 || got.Text() == "" {
		t.Fatalf("empty depth table: %d rows\n%s", len(got.Rows), got.Text())
	}
	sets, marginal := section(nil, "lattice-sets"), section(nil, "lattice-marginal")
	if len(sets.Rows) != 0 || len(marginal.Rows) != 0 || sets.Text() == "" || marginal.Text() == "" {
		t.Fatalf("empty lattice: %d set rows, %d marginal rows", len(sets.Rows), len(marginal.Rows))
	}
}

// TestRenderSingleCell: a one-cell sweep renders a one-row matrix and
// one-row aggregates.
func TestRenderSingleCell(t *testing.T) {
	res, err := campaign.Run(campaign.Config{
		Exec: measure.Config{Seed: 5},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, DefenseSets: []string{"none"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d cells, want 1", len(res))
	}
	if got := section(res, "matrix"); len(got.Rows) != 1 {
		t.Fatalf("single-cell matrix has %d rows", len(got.Rows))
	}
	if got := section(res, "summary"); len(got.Rows) != 1 || len(got.Columns) != 2 {
		t.Fatalf("single-cell summary %d rows × %d cols", len(got.Rows), len(got.Columns))
	}
	if sets := section(res, "lattice-sets"); len(sets.Rows) != 1 {
		t.Fatalf("single-cell lattice has %d set rows", len(sets.Rows))
	}
	// One baseline cell: nothing to take a marginal against.
	if marginal := section(res, "lattice-marginal"); len(marginal.Rows) != 0 {
		t.Fatalf("single-cell lattice has %d marginal rows", len(marginal.Rows))
	}
}

// TestDepthTableWithoutChainCells: a depth-0-only sweep renders a
// depth table with exactly the one depth column — no phantom chain
// columns.
func TestDepthTableWithoutChainCells(t *testing.T) {
	res, err := campaign.Run(campaign.Config{
		Exec: measure.Config{Seed: 6},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, DefenseSets: []string{"none"},
			ChainDepths: []string{"0"}, Transports: []string{"udp"}},
		Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := section(res, "depth")
	if want := []string{"Method", "Placement", "depth 0"}; len(tbl.Columns) != len(want) {
		t.Fatalf("depth-0-only header %v, want %v", tbl.HeaderNames(), want)
	}
	if len(tbl.Rows) != 2 { // hijack × {stub, carrier}
		t.Fatalf("depth-0-only table has %d rows", len(tbl.Rows))
	}
	if strings.Contains(tbl.Text(), "depth 1") {
		t.Fatalf("phantom chain column:\n%s", tbl.Text())
	}
}

// TestLatticeRankOneDegeneratesToScalarSummary: at lattice rank 1 the
// lattice's Sets table carries exactly the information of the scalar
// method × defense Summary (transposed), and the marginal table only
// measures each defense against the undefended baseline.
func TestLatticeRankOneDegeneratesToScalarSummary(t *testing.T) {
	res, err := campaign.Run(campaign.Config{
		Exec: measure.Config{Seed: 9},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials:      1,
		LatticeRank: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sets, marginal := section(res, "lattice-sets"), section(res, "lattice-marginal")
	summarySec := section(res, "summary")
	summaryHeader := summarySec.HeaderNames()
	summaryCells := summarySec.CellStrings()
	// Summary: one row per method, one column per scalar defense.
	// Lattice sets: one row per scalar defense, one column per method.
	if len(sets.Rows) != len(summaryHeader)-1 {
		t.Fatalf("lattice has %d set rows, summary %d defense columns",
			len(sets.Rows), len(summaryHeader)-1)
	}
	for i, row := range sets.CellStrings() {
		set, rank, rate := row[0], row[1], row[2]
		if set != summaryHeader[i+1] {
			t.Errorf("set row %d is %q, summary column is %q", i, set, summaryHeader[i+1])
		}
		wantRank := "1"
		if set == "none" {
			wantRank = "0"
		}
		if rank != wantRank {
			t.Errorf("set %q rank %s, want %s", set, rank, wantRank)
		}
		if rate != summaryCells[0][i+1] {
			t.Errorf("set %q rate %s, summary cell %s", set, rate, summaryCells[0][i+1])
		}
	}
	for _, row := range marginal.Rows {
		if row[1] != "none" {
			t.Errorf("rank-1 marginal row %v not against the baseline", row)
		}
	}
	if len(marginal.Rows) != 4 {
		t.Fatalf("%d marginal rows, want 4 (one per base defense)", len(marginal.Rows))
	}
}
