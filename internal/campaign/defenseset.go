package campaign

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"crosslayer/internal/scenario"
)

// DefenseSet is one set-valued point on the campaign's defense axis: a
// stack of §6 countermeasures applied together (after the method's
// Prepare) through the scenario's defense pipeline. The scalar axis of
// earlier revisions is the special case of rank <= 1: the empty set
// ("none") and the four singletons.
type DefenseSet struct {
	// Key is the set's canonical identity — the base-defense keys
	// sorted lexicographically and joined with "+" ("0x20+shuffle"),
	// or "none" for the empty set. Cell seeds derive from it, so a
	// set-filtered sweep reproduces full-sweep cells exactly.
	Key string
	// Specs is the stack in base-registry order, handed to
	// scenario.Config.Defenses. The canonical specs commute, so the
	// order is presentational (see scenario.DefenseSpec).
	Specs []scenario.DefenseSpec
}

// Rank returns the number of stacked defenses (0 for the undefended
// baseline).
func (s DefenseSet) Rank() int { return len(s.Specs) }

// NoDefenseKey is the canonical key of the empty defense set.
const NoDefenseKey = "none"

// DefenseSetKey canonicalises a list of base-defense keys into the
// set's identity: lowercased, deduplicated, sorted lexicographically,
// joined with "+"; the empty list maps to "none".
func DefenseSetKey(baseKeys []string) string {
	seen := map[string]bool{}
	var ks []string
	for _, k := range baseKeys {
		k = strings.ToLower(strings.TrimSpace(k))
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return NoDefenseKey
	}
	sort.Strings(ks)
	return strings.Join(ks, "+")
}

// canonicalSetKey normalises one user-written defense-set key:
// components split on "+", trimmed, lowercased, deduplicated and
// sorted, with "none" components dropped (so "none" itself, or
// "shuffle+0x20", both land on their canonical form).
func canonicalSetKey(key string) string {
	var parts []string
	for _, p := range strings.Split(key, "+") {
		if p = strings.ToLower(strings.TrimSpace(p)); p != "" && p != NoDefenseKey {
			parts = append(parts, p)
		}
	}
	return DefenseSetKey(parts)
}

// newDefenseSet builds the set over the given specs (assumed distinct,
// in base-registry order).
func newDefenseSet(specs []scenario.DefenseSpec) DefenseSet {
	keys := make([]string, len(specs))
	for i, d := range specs {
		keys[i] = d.Key
	}
	return DefenseSet{Key: DefenseSetKey(keys), Specs: specs}
}

// DefaultLatticeRank is the subset size the default lattice enumerates
// exhaustively: the empty set, every singleton and every pair — plus
// the full stack, appended so the sweep always measures the everything-
// on configuration.
const DefaultLatticeRank = 2

// DefenseSets enumerates the stacking lattice over the base defenses:
// every subset of size <= rank, ordered by rank and then by the base
// registry's combination order (so rank 1 reproduces the historical
// scalar axis order exactly). rank <= 0 selects the default lattice —
// DefaultLatticeRank plus the full stack; rank >= len(base) is the
// full power set.
func DefenseSets(base []scenario.DefenseSpec, rank int) []DefenseSet {
	withFullStack := rank <= 0
	if rank <= 0 {
		rank = DefaultLatticeRank
	}
	if rank > len(base) {
		rank = len(base)
	}
	var sets []DefenseSet
	seen := map[string]bool{}
	add := func(specs []scenario.DefenseSpec) {
		s := newDefenseSet(specs)
		if !seen[s.Key] {
			seen[s.Key] = true
			sets = append(sets, s)
		}
	}
	var combine func(start int, picked []scenario.DefenseSpec, size int)
	combine = func(start int, picked []scenario.DefenseSpec, size int) {
		if len(picked) == size {
			add(append([]scenario.DefenseSpec(nil), picked...))
			return
		}
		for i := start; i <= len(base)-(size-len(picked)); i++ {
			combine(i+1, append(picked, base[i]), size)
		}
	}
	for size := 0; size <= rank; size++ {
		combine(0, nil, size)
	}
	if withFullStack {
		add(append([]scenario.DefenseSpec(nil), base...))
	}
	return sets
}

// DefaultDefenseSets returns the default defense axis: the lattice
// over the full base registry at the default rank (singletons, pairs
// and the full stack, plus the undefended baseline).
func DefaultDefenseSets() []DefenseSet {
	return DefenseSets(scenario.BaseDefenses(), 0)
}

// defenseAxis plans the defense dimension of a sweep. With no filter
// it is the lattice over the full base registry at the given rank.
// Filter.Defenses restricts the base defenses the lattice is generated
// from ("none" is accepted and contributes nothing — the baseline is
// always part of the lattice); Filter.DefenseSets instead picks exact
// sets by canonical key out of the full power set, so any stack is
// addressable regardless of rank. The two filters are mutually
// exclusive.
func defenseAxis(f Filter, rank int) ([]DefenseSet, error) {
	base := scenario.BaseDefenses()
	if len(f.DefenseSets) > 0 {
		if len(f.Defenses) > 0 {
			return nil, fmt.Errorf("campaign: the defense filter and the defense-set filter are mutually exclusive; bound the lattice with base keys (-defenses) or pick exact stacks (-defense-sets), not both")
		}
		// Blank entries stay blank, so selected rejects a filter whose
		// every entry trimmed away instead of sweeping the full lattice.
		want := make([]string, len(f.DefenseSets))
		for i, k := range f.DefenseSets {
			if strings.TrimSpace(k) != "" {
				want[i] = canonicalSetKey(k)
			}
		}
		return selected("defense-set", DefenseSets(base, len(base)),
			func(s DefenseSet) string { return s.Key }, want)
	}
	if len(f.Defenses) > 0 {
		restricted, err := selectedBase(base, f.Defenses)
		if err != nil {
			return nil, err
		}
		base = restricted
	}
	return DefenseSets(base, rank), nil
}

// selectedBase restricts the stackable base registry to the wanted
// keys, preserving registry order. "none" is accepted for
// compatibility with the historical scalar axis and contributes no
// base defense (the empty set is always part of the lattice); it is
// modelled as a no-op registry entry so filter errors list it among
// the valid keys.
func selectedBase(base []scenario.DefenseSpec, want []string) ([]scenario.DefenseSpec, error) {
	reg := append([]scenario.DefenseSpec{{Key: NoDefenseKey}}, base...)
	sel, err := selected("defense", reg, func(d scenario.DefenseSpec) string { return d.Key }, want)
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(sel, func(d scenario.DefenseSpec) bool { return d.Key == NoDefenseKey }), nil
}
