package campaign

import (
	"context"
	"strings"

	"crosslayer/internal/measure"
	"crosslayer/internal/report"
)

// This file registers the campaign sweep in the experiment registry:
// one "campaign" entry whose Report carries the full artifact family —
// the per-cell matrix, the pivot views and the two defense-lattice
// views — as named sections built from one run's cells.

// campaignTitle is the campaign experiment's registry title.
const campaignTitle = "Campaign: method × victim × profile × defense-set × chain-depth × placement × transport sweep"

func init() {
	report.Register(report.Experiment{Name: "campaign", Title: campaignTitle,
		Run: func(ctx context.Context, spec report.Spec) (*report.Report, error) {
			cells, err := RunContext(ctx, ConfigFromSpec(spec))
			if err != nil {
				return nil, err
			}
			return Report(cells, spec), nil
		}})
}

// ConfigFromSpec projects the registry's uniform run Spec onto a
// campaign Config: the execution knobs ride measure.Config, the axis
// filters become the Filter.
func ConfigFromSpec(spec report.Spec) Config {
	cfg := Config{
		Exec:        measure.ConfigFromSpec(spec),
		Trials:      spec.Trials,
		LatticeRank: spec.LatticeRank,
		Downgrade:   spec.Downgrade,
	}
	for _, fk := range FilterKeys() {
		*fk.filter(&cfg.Filter) = *fk.Spec(&spec)
	}
	return cfg
}

// Report assembles the full campaign Report from a run's cells: the
// sweep parameters, then the sections "matrix", the pivots "summary",
// "depth", "transport" and "deploy", and "lattice-sets" and
// "lattice-marginal". Consumers address sections by these names — the
// golden suite pins each as its own text artifact.
func Report(cells []CellResult, spec report.Spec) *report.Report {
	rep := report.New("campaign", campaignTitle)
	report.BaseParams(rep, spec)
	for _, fk := range FilterKeys() {
		if keys := *fk.Spec(&spec); len(keys) > 0 {
			// Empty means the axis default and is not recorded.
			rep.AddParam(fk.Param, strings.Join(keys, ","))
		}
	}
	if spec.Trials != 0 {
		rep.AddParam("trials", spec.Trials)
	}
	if spec.LatticeRank != 0 {
		rep.AddParam("lattice_rank", spec.LatticeRank)
	}
	if spec.Downgrade {
		rep.AddParam("downgrade", true)
	}
	rep.AddSection(matrix(cells))
	for _, p := range pivots {
		rep.AddSection(p.section(cells))
	}
	rep.Sections = append(rep.Sections, lattice(cells)...)
	return rep
}
