package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCountersMarshalJSONDeterministic pins the JSON export contract: keys
// are emitted sorted, so equal counter values marshal to identical bytes.
func TestCountersMarshalJSONDeterministic(t *testing.T) {
	mk := func() *RecoveryCounters {
		c := NewRecoveryCounters()
		c.PreservesStaged.Store(7)
		c.PreservesCommitted.Store(6)
		c.PreservesAborted.Store(1)
		c.ChecksumMismatches.Store(1)
		c.DomainDiscards.Store(2)
		return c
	}
	a, err := json.Marshal(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("non-deterministic JSON:\n%s\n%s", a, b)
	}

	// Round-trip: the bytes decode back to the snapshot values.
	var got map[string]int64
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	want := mk().Snapshot()
	if len(got) != len(want) {
		t.Fatalf("field count %d != %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: got %d want %d", k, got[k], v)
		}
	}

	// Sorted-key check: the raw bytes must list keys in sorted order.
	keys := make([]string, 0, len(want))
	dec := json.NewDecoder(bytes.NewReader(a))
	if _, err := dec.Token(); err != nil { // opening brace
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if k, ok := tok.(string); ok {
			keys = append(keys, k)
		}
		if _, err := dec.Token(); err != nil { // value
			t.Fatal(err)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %q before %q", keys[i-1], keys[i])
		}
	}
}
