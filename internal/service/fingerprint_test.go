package service

import (
	"os"
	"testing"
)

// TestContentAddressGolden pins the literal content-address of a few
// representative specs. Persistent verdict stores (csserved -store,
// csverify -store) are keyed by these strings, so a key that changes
// silently orphans every stored verdict. A deliberate key change must
// update this table and say so in the changelog.
func TestContentAddressGolden(t *testing.T) {
	src, err := os.ReadFile("../../testdata/threestate.gcl")
	if err != nil {
		t.Fatal(err)
	}
	withOpts := func(o JobOptions) JobSpec {
		spec := ringSpec(3, 5)
		spec.Options = o
		return spec
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
		key  string
	}{
		{"ring-default", ringSpec(3, 5),
			"08610d22cd62f7b1b581f7f5df5a16940ff768cd4ae223630f5216323a46adef"},
		{"ring-metrics", withOpts(JobOptions{Analyses: []string{AnalysisMetrics}}),
			"5cc138e664300e92134c1edd2241ad6430803ec3fbd9e2ff1fee2769cfb00bf5"},
		{"ring-quotient", withOpts(JobOptions{SpaceMode: "quotient"}),
			"b444a54e7863eefa098eca4d96fcf52846adff99e1d534680b77746de38e9d11"},
		{"ring-saboteur", withOpts(JobOptions{Saboteur: &SaboteurOptions{K: 2}}),
			"3195636fe94ad8025014127dd318e8b99b0ba7ad44d5d51ac8e954318b193fe3"},
		{"gcl-source", JobSpec{Source: string(src),
			Options: JobOptions{MaxStates: 1000000, Strategy: "exhaustive"}},
			"30748a6cee33bfc6d30d6e5cb1be079de9b341e63a0d1c3121b0a502067c5fb5"},
	} {
		if got := mustKey(t, tc.spec, Config{}); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.key)
		}
	}
}
