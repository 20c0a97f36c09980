package campaign

import (
	"slices"
	"strings"

	"crosslayer/internal/apps"
	"crosslayer/internal/deploy"
	"crosslayer/internal/report"
)

// This file is the campaign's axis table: one entry per sweep
// dimension, in plan order. Every surface that names a dimension walks
// the table instead of naming axes one by one: the planner
// (CellsAtRank), the cell identity (Cell.Key), the result fields
// (runCell), the Spec-to-Filter projection (ConfigFromSpec), the
// report params, the matrix columns and pivot views, the serve query
// keys and the xlmeasure flags.

// FilterKey is one user-facing filter of a campaign axis: a
// comma-separated list of registry keys, named the same as an
// xlmeasure flag and as a serve query key. Most axes have one filter;
// the defense axis has two (-defenses bounds the lattice,
// -defense-sets picks exact stacks).
type FilterKey struct {
	// Flag is the xlmeasure flag and serve query key ("chain-depths").
	Flag string
	// Param is the report param name ("chain_depths").
	Param string
	// Usage is the flag's help text.
	Usage string
	// Spec addresses the filter's field in a report.Spec.
	Spec func(*report.Spec) *[]string
	// filter addresses the same filter's field in a Filter.
	filter func(*Filter) *[]string
}

// Axis is one dimension of the campaign cross-product.
type Axis struct {
	// Column is the axis's header in the matrix and pivot sections.
	Column string
	// Filters are the axis's user-facing filters, in param order.
	Filters []FilterKey
	// Default, when non-empty, is the only value an empty filter
	// plans. Cell identity leaves it out, so cells keyed before the
	// axis existed keep their keys, seeds and cache addresses, and the
	// matrix drops the axis's column when every row holds it.
	Default string
	// plan returns the planned values as cell setters, in registry
	// order.
	plan func(f Filter, latticeRank int) ([]func(*Cell), error)
	// key reads the axis's registry key off a cell.
	key func(*Cell) string
	// result addresses the axis's key field on a CellResult.
	result func(*CellResult) *string
}

// value returns the result's key on the axis. An empty key (a result
// decoded from a checkpoint written before the axis existed) reads as
// the axis default.
func (a *Axis) value(r *CellResult) string {
	if v := *a.result(r); v != "" {
		return v
	}
	return a.Default
}

// registryAxis completes an Axis whose values are entries of type T
// held in one Cell field.
type registryAxis[T any] struct {
	Axis
	// dim names the axis in filter errors ("chain-depth").
	dim string
	// registry lists the axis values in plan order.
	registry func() []T
	// key is a value's registry key.
	key func(T) string
	// field addresses the axis's value on a Cell.
	field func(*Cell) *T
	// planner, when set, replaces selecting the first filter's keys
	// out of the registry (the defense lattice).
	planner func(f Filter, latticeRank int) ([]T, error)
}

func (r registryAxis[T]) build() Axis {
	a := r.Axis
	planner := r.planner
	if planner == nil {
		planner = func(f Filter, _ int) ([]T, error) {
			want := *a.Filters[0].filter(&f)
			if len(want) == 0 && a.Default != "" {
				want = []string{a.Default}
			}
			return selected(r.dim, r.registry(), r.key, want)
		}
	}
	a.plan = func(f Filter, latticeRank int) ([]func(*Cell), error) {
		vals, err := planner(f, latticeRank)
		if err != nil {
			return nil, err
		}
		sets := make([]func(*Cell), len(vals))
		for i, v := range vals {
			sets[i] = func(c *Cell) { *r.field(c) = v }
		}
		return sets, nil
	}
	a.key = func(c *Cell) string { return r.key(*r.field(c)) }
	return a
}

// axes is the axis table in plan order: methods outermost, deployment
// datasets innermost.
var axes = []Axis{
	registryAxis[Method]{
		Axis: Axis{Column: "Method", Filters: []FilterKey{{
			Flag: "methods", Param: "methods", Usage: "campaign: comma-separated method keys (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.Methods },
			filter: func(f *Filter) *[]string { return &f.Methods },
		}}, result: func(r *CellResult) *string { return &r.Method }},
		dim: "method", registry: Methods, key: func(m Method) string { return m.Key },
		field: func(c *Cell) *Method { return &c.Method },
	}.build(),
	registryAxis[apps.Victim]{
		Axis: Axis{Column: "Victim", Filters: []FilterKey{{
			Flag: "victims", Param: "victims", Usage: "campaign: comma-separated victim keys (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.Victims },
			filter: func(f *Filter) *[]string { return &f.Victims },
		}}, result: func(r *CellResult) *string { return &r.Victim }},
		dim: "victim", registry: apps.Victims, key: func(v apps.Victim) string { return v.Key },
		field: func(c *Cell) *apps.Victim { return &c.Victim },
	}.build(),
	registryAxis[ProfileEntry]{
		Axis: Axis{Column: "Profile", Filters: []FilterKey{{
			Flag: "profiles", Param: "profiles", Usage: "campaign: comma-separated resolver profile keys (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.Profiles },
			filter: func(f *Filter) *[]string { return &f.Profiles },
		}}, result: func(r *CellResult) *string { return &r.Profile }},
		dim: "profile", registry: Profiles, key: func(p ProfileEntry) string { return p.Key },
		field: func(c *Cell) *ProfileEntry { return &c.Profile },
	}.build(),
	registryAxis[DefenseSet]{
		Axis: Axis{Column: "Defense", Filters: []FilterKey{{
			Flag: "defenses", Param: "defenses", Usage: "campaign: comma-separated base-defense keys bounding the stacking lattice (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.Defenses },
			filter: func(f *Filter) *[]string { return &f.Defenses },
		}, {
			Flag: "defense-sets", Param: "defense_sets", Usage: "campaign: comma-separated exact defense stacks, e.g. 0x20+shuffle (overrides the lattice; empty = lattice)",
			Spec:   func(s *report.Spec) *[]string { return &s.DefenseSets },
			filter: func(f *Filter) *[]string { return &f.DefenseSets },
		}}, result: func(r *CellResult) *string { return &r.Defense }},
		key: func(s DefenseSet) string { return s.Key }, field: func(c *Cell) *DefenseSet { return &c.Defenses },
		planner: defenseAxis,
	}.build(),
	registryAxis[DepthEntry]{
		Axis: Axis{Column: "Depth", Filters: []FilterKey{{
			Flag: "chain-depths", Param: "chain_depths", Usage: "campaign: comma-separated forwarder-chain depths 0-3 (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.ChainDepths },
			filter: func(f *Filter) *[]string { return &f.ChainDepths },
		}}, result: func(r *CellResult) *string { return &r.Depth }},
		dim: "chain-depth", registry: ChainDepths, key: func(d DepthEntry) string { return d.Key },
		field: func(c *Cell) *DepthEntry { return &c.Depth },
	}.build(),
	registryAxis[PlacementEntry]{
		Axis: Axis{Column: "Placement", Filters: []FilterKey{{
			Flag: "placement", Param: "placements", Usage: "campaign: comma-separated attacker placements stub,carrier (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.Placements },
			filter: func(f *Filter) *[]string { return &f.Placements },
		}}, result: func(r *CellResult) *string { return &r.Placement }},
		dim: "placement", registry: Placements, key: func(p PlacementEntry) string { return p.Key },
		field: func(c *Cell) *PlacementEntry { return &c.Placement },
	}.build(),
	registryAxis[TransportEntry]{
		Axis: Axis{Column: "Transport", Filters: []FilterKey{{
			Flag: "transports", Param: "transports", Usage: "campaign: comma-separated upstream transports udp,tcp,dot,doh,doq,mixed,opp (empty = all)",
			Spec:   func(s *report.Spec) *[]string { return &s.Transports },
			filter: func(f *Filter) *[]string { return &f.Transports },
		}}, result: func(r *CellResult) *string { return &r.Transport }},
		dim: "transport", registry: Transports, key: func(t TransportEntry) string { return t.Key },
		field: func(c *Cell) *TransportEntry { return &c.Transport },
	}.build(),
	registryAxis[DeploymentEntry]{
		Axis: Axis{Column: "Dataset", Filters: []FilterKey{{
			Flag: "deployments", Param: "deployments", Usage: "campaign: comma-separated deployment datasets canonical,measured,hardened (empty = canonical only)",
			Spec:   func(s *report.Spec) *[]string { return &s.Deployments },
			filter: func(f *Filter) *[]string { return &f.Deployments },
		}}, result: func(r *CellResult) *string { return &r.Deployment }, Default: deploy.CanonicalKey},
		dim: "deployment", registry: Deployments, key: func(d DeploymentEntry) string { return d.Key },
		field: func(c *Cell) *DeploymentEntry { return &c.Deployment },
	}.build(),
}

// Axes returns the axis table in plan order. The entries share their
// Filters slices with the table; callers must not modify them.
func Axes() []Axis { return slices.Clone(axes) }

// FilterKeys returns every axis filter in plan order — the campaign's
// xlmeasure flags, serve query keys and report params.
func FilterKeys() []FilterKey {
	var out []FilterKey
	for _, a := range axes {
		out = append(out, a.Filters...)
	}
	return out
}

// Set parses a comma-separated key list into the filter's Spec field;
// blank entries are dropped, and an empty list leaves the axis
// unfiltered (nil).
func (k FilterKey) Set(spec *report.Spec, list string) {
	var keys []string
	for _, key := range strings.Split(list, ",") {
		if key = strings.TrimSpace(key); key != "" {
			keys = append(keys, key)
		}
	}
	*k.Spec(spec) = keys
}

// axisByColumn returns the axis with the given column header.
func axisByColumn(column string) *Axis {
	for i := range axes {
		if axes[i].Column == column {
			return &axes[i]
		}
	}
	panic("campaign: no axis with column " + column)
}

// Key returns the cell's stable identity — its axis keys in plan
// order joined with "/" ("method/victim/profile/defense-set/depth/
// placement/transport") — the string its seed derives from. The
// defense component is the set's canonical key, so a singleton set
// keeps the exact identity (and therefore the exact trial population)
// of the historical scalar axis. By the same argument an axis's
// Default value is left out (a canonical deployment adds nothing;
// "/measured" and "/hardened" do), so a cell's key, seed and trial
// population are exactly those it had before the axis existed.
func (c Cell) Key() string {
	keys := make([]string, 0, len(axes))
	for i := range axes {
		a := &axes[i]
		if k := a.key(&c); a.Default == "" || (k != "" && k != a.Default) {
			keys = append(keys, k)
		}
	}
	return strings.Join(keys, "/")
}

// CellsAtRank plans the (filtered) cross-product in deterministic
// order: the product of the axes' planned values with the first axis
// (methods) outermost and the last (deployment datasets) innermost,
// each in registry order. The defense axis is the stacking lattice
// bounded by latticeRank (see DefenseSets). Unknown filter keys are an
// error, not a silent empty sweep.
func CellsAtRank(f Filter, latticeRank int) ([]Cell, error) {
	plans := make([][]func(*Cell), len(axes))
	total := 1
	for i := range axes {
		p, err := axes[i].plan(f, latticeRank)
		if err != nil {
			return nil, err
		}
		plans[i] = p
		total *= len(p)
	}
	cells := make([]Cell, total)
	for n := range cells {
		// n in mixed radix, innermost axis the least significant digit.
		r := n
		for i := len(plans) - 1; i >= 0; i-- {
			plans[i][r%len(plans[i])](&cells[n])
			r /= len(plans[i])
		}
	}
	return cells, nil
}
