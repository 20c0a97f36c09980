package campaign

import (
	"slices"
	"strings"

	"crosslayer/internal/report"
	"crosslayer/internal/scenario"
)

// lattice builds the defense-stacking view of a campaign run as two
// sections, the artifact pinned as testdata/golden/campaign_lattice.txt:
//
//   - "lattice-sets": one row per defense set in sweep order, one
//     poisoning-rate column per method, aggregated over victims,
//     profiles, chain depths and placements (the summary pivot's
//     aggregation, transposed, plus each set's rank);
//   - "lattice-marginal": for each base defense d and each measured
//     subset S not containing d (with S ∪ {d} also measured), the
//     per-method drop in poisoning rate caused by stacking d on top
//     of S, in percentage points. Positive values mean d blocks
//     attacks the subset still let through; +0pp on an already-clean
//     subset means d is redundant there; an n/a cell means one side
//     was never measured.
//
// At lattice rank 1 the sets section degenerates to the historical
// scalar method × defense summary (transposed) and the marginal
// section only reports each defense against the undefended baseline.
func lattice(results []CellResult) []*report.Section {
	t := aggregate(results, []string{"Method"}, "Defense")

	setCols := []report.Column{
		report.Col("Defense set", report.KindString),
		report.Col("Rank", report.KindInt),
	}
	for _, m := range t.rows {
		setCols = append(setCols, report.Col(m[0], report.KindRatio))
	}
	sets := report.Table("lattice-sets",
		"Campaign lattice: poisoning success by defense set × method (over victims × profiles × depths × placements)",
		setCols...)
	for si, s := range t.cols {
		row := []any{s, len(setComponents(s))}
		for mi := range t.rows {
			row = append(row, t.at(mi, si))
		}
		sets.Add(row...)
	}

	margCols := report.StrCols("Defense", "On top of")
	for _, m := range t.rows {
		margCols = append(margCols, report.Col(m[0], report.KindPP))
	}
	marginal := report.Table("lattice-marginal",
		"Campaign lattice: marginal coverage — Δ poisoning (pp) from stacking each defense on every measured subset",
		margCols...)
	for _, d := range presentBaseDefenses(t.cols) {
		for si, s := range t.cols {
			comps := setComponents(s)
			if slices.Contains(comps, d) {
				continue
			}
			superI, ok := t.colAt[DefenseSetKey(append(comps, d))]
			if !ok {
				continue
			}
			row := []any{d, s}
			for mi := range t.rows {
				before, after := t.at(mi, si), t.at(mi, superI)
				if before.Total == 0 || after.Total == 0 {
					row = append(row, nil)
					continue
				}
				row = append(row, 100*(before.Frac()-after.Frac()))
			}
			marginal.Add(row...)
		}
	}
	return []*report.Section{sets, marginal}
}

// setComponents splits a canonical set key into its base-defense keys
// (empty for "none").
func setComponents(key string) []string {
	if key == NoDefenseKey || key == "" {
		return nil
	}
	return strings.Split(key, "+")
}

// presentBaseDefenses returns the base defenses appearing in any of
// the measured set keys, in base-registry order — the rows of the
// marginal table.
func presentBaseDefenses(setKeys []string) []string {
	present := map[string]bool{}
	for _, s := range setKeys {
		for _, c := range setComponents(s) {
			present[c] = true
		}
	}
	var out []string
	for _, d := range scenario.BaseDefenses() {
		if present[d.Key] {
			out = append(out, d.Key)
		}
	}
	return out
}
