package explore

import "testing"

// TestCheckVetAgreement: the shipped models must verify clean and stay
// violation-free dynamically, and every registered mutant must be flagged
// statically at its planted position and manifest dynamically — the
// differential contract, on a sweep small enough for the unit suite.
func TestCheckVetAgreement(t *testing.T) {
	sum, err := CheckVet(VetOptions{Seeds: 12})
	if err != nil {
		t.Fatalf("campaign failed: %v\n%s", err, FmtVetSummary(sum))
	}
	if !sum.Agreement {
		t.Fatalf("summary disagreement without error:\n%s", FmtVetSummary(sum))
	}
	if len(sum.Models) != 5 {
		t.Fatalf("campaign covered %d models, want 5", len(sum.Models))
	}
	for _, m := range sum.Models {
		if !m.Clean || m.Dangling != 0 || m.ChecksumMismatches != 0 {
			t.Fatalf("model %s: clean=%v dangling=%d checksum=%d", m.Model, m.Clean, m.Dangling, m.ChecksumMismatches)
		}
		if m.Calls == 0 || m.Restarts == 0 {
			t.Fatalf("model %s: degenerate drive (%d calls, %d restarts)", m.Model, m.Calls, m.Restarts)
		}
		if len(m.Mutants) == 0 {
			t.Fatalf("model %s: no mutants exercised", m.Model)
		}
		for _, mu := range m.Mutants {
			if !mu.Flagged || mu.Dynamic == 0 {
				t.Fatalf("model %s mutant %s#%d: flagged=%v dynamic=%d",
					m.Model, mu.Fn, mu.NthStore, mu.Flagged, mu.Dynamic)
			}
			if mu.Line == 0 {
				t.Fatalf("model %s mutant %s#%d lacks position", m.Model, mu.Fn, mu.NthStore)
			}
		}
	}
}

// TestCheckVetModelFilter: restricting to one model sweeps only it, and an
// unknown model is an error.
func TestCheckVetModelFilter(t *testing.T) {
	sum, err := CheckVet(VetOptions{Seeds: 4, Model: "kvstore"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Models) != 1 || sum.Models[0].Model != "kvstore" {
		t.Fatalf("filtered campaign models = %+v", sum.Models)
	}
	if _, err := CheckVet(VetOptions{Seeds: 1, Model: "no-such-model"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
