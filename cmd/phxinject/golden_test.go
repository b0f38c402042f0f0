package main

import (
	"path/filepath"
	"testing"

	"phoenix/internal/golden"
)

// TestCampaignGolden runs every campaign at its pinned configuration,
// requires its contract check to pass, and byte-compares the -json report
// with the checked-in testdata/golden/<name>.json. A deterministic change in
// behaviour shows up here as a diff; `go test ./cmd/phxinject -update`
// accepts it by rewriting the files.
func TestCampaignGolden(t *testing.T) {
	for _, c := range campaigns() {
		t.Run(c.name, func(t *testing.T) {
			report, _, err := c.run(c.cfg)
			if err != nil {
				t.Fatalf("campaign contract: %v", err)
			}
			got, err := marshalReport(report)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "golden", c.name+".json"), got)
		})
	}
}
