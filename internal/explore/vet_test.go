package explore

import "testing"

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
