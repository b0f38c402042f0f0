package main

import (
	"strings"
	"testing"

	"phoenix/internal/experiments"
)

// TestSelectRun covers -run: an empty list is everything, names resolve in
// registry order, and every unknown name fails the selection by name, with
// the valid IDs listed.
func TestSelectRun(t *testing.T) {
	all := []experiments.Experiment{{ID: "tab1"}, {ID: "fig9"}, {ID: "abl-regions"}}
	ids := func(es []experiments.Experiment) string {
		var s []string
		for _, e := range es {
			s = append(s, e.ID)
		}
		return strings.Join(s, ",")
	}
	for _, tc := range []struct{ run, want string }{
		{"", "tab1,fig9,abl-regions"},
		{"fig9", "fig9"},
		{"abl-regions, tab1", "tab1,abl-regions"},
		{"fig9,fig9", "fig9"},
	} {
		got, err := selectRun(all, tc.run)
		if err != nil {
			t.Fatalf("-run %q: %v", tc.run, err)
		}
		if ids(got) != tc.want {
			t.Errorf("-run %q selected %s, want %s", tc.run, ids(got), tc.want)
		}
	}
	for _, tc := range []struct{ run, names string }{
		{"nope", `"nope"`},
		{"fig99,tab1", `"fig99"`},
		{"fig99,tab1,tab2", `"fig99", "tab2"`},
		{"fig9,", `""`},
	} {
		got, err := selectRun(all, tc.run)
		if err == nil {
			t.Fatalf("-run %q selected %s, want an error", tc.run, ids(got))
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment "+tc.names+";") ||
			!strings.Contains(msg, "valid IDs: tab1, fig9, abl-regions") {
			t.Errorf("-run %q: error %q does not name %s and list the valid IDs", tc.run, msg, tc.names)
		}
	}
}
