package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current campaign outputs")

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
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: output differs at byte offset %d (got %d bytes, want %d); rerun with -update to accept",
					path, firstDiff(got, want), len(got), len(want))
			}
		})
	}
}

// firstDiff returns the offset of the first byte where a and b differ (the
// shorter length when one is a prefix of the other).
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
