package netsim

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/simclock"
)

func collect(net *Network, id NodeID) *[]string {
	var got []string
	net.Register(id, func(m Message) {
		got = append(got, fmt.Sprintf("%d:%s->%s:%v@%v", m.Seq, m.From, m.To, m.Payload, net.Now()))
	})
	return &got
}

func TestDeliveryAfterLatency(t *testing.T) {
	clk := simclock.New()
	net := New(clk, LinkConfig{Latency: time.Millisecond}, 1, nil)
	got := collect(net, "b")

	net.Send("a", "b", "hello")
	if len(*got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	clk.Advance(time.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("got %v", *got)
	}
	if net.Stat.Sent != 1 || net.Stat.Delivered != 1 {
		t.Fatalf("stats %+v", net.Stat)
	}
}

func TestSeedReproducible(t *testing.T) {
	run := func(seed int64) ([]string, Stats) {
		clk := simclock.New()
		net := New(clk, LinkConfig{Latency: time.Millisecond, Jitter: 500 * time.Microsecond}, seed, nil)
		got := collect(net, "b")
		for i := 0; i < 200; i++ {
			net.Send("a", "b", i)
			clk.Advance(100 * time.Microsecond)
		}
		clk.Advance(time.Second)
		return *got, net.Stat
	}
	a1, s1 := run(7)
	a2, s2 := run(7)
	if len(a1) != len(a2) || s1 != s2 {
		t.Fatalf("same seed diverged: %d vs %d deliveries, %+v vs %+v", len(a1), len(a2), s1, s2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("delivery %d differs: %s vs %s", i, a1[i], a2[i])
		}
	}
	b, sb := run(8)
	if len(a1) == len(b) && s1 == sb {
		same := true
		for i := range a1 {
			if a1[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("distinct seeds produced identical delivery traces")
		}
	}
}

func TestPartitionCutsBothNewAndInFlight(t *testing.T) {
	clk := simclock.New()
	net := New(clk, LinkConfig{Latency: time.Millisecond}, 1, nil)
	got := collect(net, "b")

	// In flight when the partition forms: must be cut.
	net.Send("a", "b", "inflight")
	net.Partition([]NodeID{"a"}, []NodeID{"b"})
	if net.Reachable("a", "b") {
		t.Fatal("partitioned nodes reachable")
	}
	// New send across the cut: dropped at send time.
	net.Send("a", "b", "blocked")
	clk.Advance(10 * time.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("delivered across partition: %v", *got)
	}
	if net.Stat.PartitionDrops != 2 {
		t.Fatalf("stats %+v", net.Stat)
	}

	// Same-side traffic still flows.
	net.Partition([]NodeID{"a", "b"})
	net.Send("a", "b", "sameside")
	clk.Advance(time.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("same-side traffic blocked: %v", *got)
	}

	// Heal restores the cut pair.
	net.Partition([]NodeID{"a"}, []NodeID{"b"})
	net.Heal()
	net.Send("a", "b", "healed")
	clk.Advance(time.Millisecond)
	if len(*got) != 2 {
		t.Fatalf("heal did not restore delivery: %v", *got)
	}
}

func TestInjectedDropDupDelay(t *testing.T) {
	clk := simclock.New()
	inj := faultinject.New()
	net := New(clk, LinkConfig{Latency: time.Millisecond}, 1, inj)
	got := collect(net, "b")
	inj.Enable()

	inj.Arm(SiteLinkDrop, faultinject.OpFailure)
	net.Send("a", "b", "striken")
	clk.Advance(time.Second)
	if len(*got) != 0 || net.Stat.InjectedDrops != 1 {
		t.Fatalf("injected drop missed: %v, %+v", *got, net.Stat)
	}

	inj.Arm(SiteLinkDup, faultinject.OpFailure)
	net.Send("a", "b", "twice")
	clk.Advance(time.Second)
	if len(*got) != 2 || net.Stat.Duplicated != 1 {
		t.Fatalf("injected dup missed: %v, %+v", *got, net.Stat)
	}

	inj.Arm(SiteLinkDelay, faultinject.OpFailure)
	net.Send("a", "b", "slow")
	clk.Advance(time.Millisecond)
	if len(*got) != 2 {
		t.Fatal("delayed message arrived at base latency")
	}
	clk.Advance(10 * time.Millisecond)
	if len(*got) != 3 || net.Stat.Delayed != 1 {
		t.Fatalf("injected delay missed: %v, %+v", *got, net.Stat)
	}
}

func TestUnregisteredDestinationDrops(t *testing.T) {
	clk := simclock.New()
	net := New(clk, LinkConfig{}, 1, nil)
	net.Send("a", "ghost", "lost")
	clk.Advance(time.Second)
	if net.Stat.Delivered != 0 || net.Stat.Dropped != 1 {
		t.Fatalf("stats %+v", net.Stat)
	}
}

// TestSendDeliverAllocs pins the fabric's hot path: a send on the serving
// fabric's link shape, plus the clock advance that delivers it, allocates
// the delivery closure and its clock timer and nothing else.
func TestSendDeliverAllocs(t *testing.T) {
	clk := simclock.New()
	net := New(clk, LinkConfig{Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond}, 1, nil)
	delivered := 0
	net.Register("b", func(Message) { delivered++ })
	var payload any = "ping"
	allocs := testing.AllocsPerRun(1000, func() {
		net.Send("a", "b", payload)
		clk.Advance(200 * time.Microsecond)
	})
	if allocs != 2 {
		t.Fatalf("send and deliver allocate %v objects, want 2", allocs)
	}
	if delivered != 1001 {
		t.Fatalf("delivered %d of 1001 messages", delivered)
	}
}

func TestRegisterSitesSharedInjector(t *testing.T) {
	inj := faultinject.New()
	RegisterSites(inj)
	RegisterSites(inj) // second call must not panic on duplicates
	clk := simclock.New()
	_ = New(clk, LinkConfig{}, 1, inj) // nor construction with a pre-registered injector
}

// BenchmarkSendDeliver measures one send-advance-deliver round trip through
// the fabric, the hot path of every serving-fabric run.
func BenchmarkSendDeliver(b *testing.B) {
	clk := simclock.New()
	net := New(clk, LinkConfig{Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond}, 1, nil)
	delivered := 0
	net.Register("b", func(Message) { delivered++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send("a", "b", i)
		clk.Advance(200 * time.Microsecond)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
