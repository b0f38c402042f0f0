package shard

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

// oneRequest is a generator that emits the same request forever.
type oneRequest struct{ req *workload.Request }

func (g *oneRequest) Next() *workload.Request               { return g.req }
func (g *oneRequest) Clone(int64) workload.Generator        { return g }
func (g *oneRequest) set(req *workload.Request) *oneRequest { g.req = req; return g }

// TestRouterRequestAllocs pins the router-request rung of the allocation
// ladder, the rung above netsim's TestSendDeliverAllocs: one client request
// from the frontend through the router to the replica group and back, on a
// warm PHOENIX kvstore fabric of one shard and three replicas with no
// arrivals of its own. A read goes to one replica; a write fans out to all
// three and is answered once all three applied it. Each iteration runs one
// probe interval, so it also carries one probe round (three probes and
// their acks), which the idle case pins alone: a read adds 19 objects and
// a write 40.
func TestRouterRequestAllocs(t *testing.T) {
	const records = 256
	var warm []*workload.Request
	for i := uint64(0); i < records; i++ {
		key := fmt.Sprintf("user%010d", i)
		warm = append(warm, &workload.Request{Seq: i + 1, Op: workload.OpInsert, Key: key, Value: workload.Value(key, 1, 64)})
	}
	gen := &oneRequest{warm[0]}
	mk := func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
		return kvstore.New(kvstore.Config{}, inj), gen
	}
	f, err := newFabric(Config{
		System: "kvstore", Shards: 1, Replicas: 3, Seed: 1,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix},
		// The arrival window closes before the first arrival.
		Profile: Profile{Proto: gen, Warm: warm, RunFor: time.Nanosecond},
	}, mk, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(2 * probeInterval) // every replica acked: all healthy

	key := warm[42].Key
	for _, c := range []struct {
		name string
		req  *workload.Request
		want float64
	}{
		{"idle", nil, 17},
		{"read", &workload.Request{Op: workload.OpRead, Key: key}, 36},
		{"write", &workload.Request{Op: workload.OpUpdate, Key: key, Value: workload.Value(key, 2, 64)}, 57},
	} {
		served := f.served
		got := testing.AllocsPerRun(200, func() {
			if c.req != nil {
				f.fe.gen = gen.set(c.req)
				f.fe.arrive(0)
			}
			f.clk.Advance(probeInterval)
		})
		if c.req != nil && (f.served-served != 201 || len(f.fe.pending) != 0) {
			t.Fatalf("%s: %d of 201 requests served first time, %d pending", c.name, f.served-served, len(f.fe.pending))
		}
		if got != c.want {
			t.Errorf("%s: a probe interval allocates %v objects, want %v", c.name, got, c.want)
		}
	}
}
