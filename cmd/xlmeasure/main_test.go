package main

import (
	"flag"
	"reflect"
	"testing"

	"crosslayer"
)

// TestCampaignFlagsCoverEveryAxisFilter walks the campaign axis table:
// every axis filter must be registered as a flag under its name, and
// its parsed keys must land in the spec field the table names.
func TestCampaignFlagsCoverEveryAxisFilter(t *testing.T) {
	fs := flag.NewFlagSet("xlmeasure", flag.ContinueOnError)
	setFilters := campaignFlags(fs)
	var args []string
	for _, f := range crosslayer.CampaignFlags() {
		if fs.Lookup(f.Flag) == nil {
			t.Errorf("campaign filter %q has no flag", f.Flag)
		}
		args = append(args, "-"+f.Flag, " a ,b,")
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var spec crosslayer.ExperimentSpec
	setFilters(&spec)
	for _, f := range crosslayer.CampaignFlags() {
		if got := *f.Spec(&spec); !reflect.DeepEqual(got, []string{"a", "b"}) {
			t.Errorf("-%s set spec keys %q, want [a b]", f.Flag, got)
		}
	}

	// An unset flag leaves its axis unfiltered.
	fs = flag.NewFlagSet("xlmeasure", flag.ContinueOnError)
	setFilters = campaignFlags(fs)
	spec = crosslayer.ExperimentSpec{}
	setFilters(&spec)
	for _, f := range crosslayer.CampaignFlags() {
		if got := *f.Spec(&spec); got != nil {
			t.Errorf("unset -%s set spec keys %q", f.Flag, got)
		}
	}
}
