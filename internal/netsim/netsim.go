// Package netsim is a deterministic message-passing network on the simulated
// clock. Nodes register handlers; Send schedules delivery after the link's
// latency plus a jitter drawn from a seeded RNG. Partitions cut delivery
// between node groups — both for new sends and for messages already in
// flight when the partition forms.
//
// Everything is driven by simclock: no goroutines, no wall time, no map
// iteration in the delivery path, so a run with a given seed and send
// sequence produces byte-identical delivery order. The faultinject sites
// (netsim.link.*) drop, duplicate or delay individual messages, the same way
// campaigns strike preserve_exec operations.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/simclock"
)

// NodeID names a simulated host.
type NodeID string

// Message is one datagram in flight.
type Message struct {
	From, To NodeID
	// Payload is opaque to the network.
	Payload any
	// Seq is the network-global send sequence number (diagnostics and
	// deterministic tie-breaks).
	Seq uint64
}

// Handler receives delivered messages.
type Handler func(Message)

// LinkConfig shapes every link of a network.
type LinkConfig struct {
	// Latency is the base one-way delay.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) component per delivery.
	Jitter time.Duration
}

func (lc *LinkConfig) fill() {
	if lc.Latency == 0 {
		lc.Latency = 200 * time.Microsecond
	}
}

// Injection sites: campaigns strike the next message(s) crossing any link.
const (
	// SiteLinkDrop drops the Nth message offered to the network (arm with
	// ArmAfter to choose N).
	SiteLinkDrop = "netsim.link.drop"
	// SiteLinkDup duplicates the Nth message.
	SiteLinkDup = "netsim.link.dup"
	// SiteLinkDelay adds a 10× base-latency penalty to the Nth message.
	SiteLinkDelay = "netsim.link.delay"
)

// Sites lists the network injection points.
func Sites() []faultinject.Site {
	return []faultinject.Site{
		{ID: SiteLinkDrop, Func: "Network.Send", Kind: faultinject.KindOp},
		{ID: SiteLinkDup, Func: "Network.Send", Kind: faultinject.KindOp},
		{ID: SiteLinkDelay, Func: "Network.Send", Kind: faultinject.KindOp},
	}
}

// RegisterSites declares the network sites on inj, skipping duplicates (a
// campaign injector may be shared across networks and harnesses).
func RegisterSites(inj *faultinject.Injector) {
	for _, s := range Sites() {
		if _, armed := inj.ArmedAt(s.ID); armed {
			continue
		}
		registered := false
		for _, have := range inj.Sites() {
			if have.ID == s.ID {
				registered = true
				break
			}
		}
		if !registered {
			inj.Register(s)
		}
	}
}

// Stats counts network-level outcomes.
type Stats struct {
	Sent       int
	Delivered  int
	Dropped    int // addressed to a node with no handler
	Duplicated int
	Delayed    int // injected delay penalties
	// PartitionDrops counts messages cut by a partition — at send time or
	// while in flight when the partition formed.
	PartitionDrops int
	// InjectedDrops counts messages dropped by an armed netsim.link.drop.
	InjectedDrops int
}

// Network is the simulated fabric.
type Network struct {
	clk *simclock.Clock
	rng *rand.Rand
	inj *faultinject.Injector

	link     LinkConfig
	handlers map[NodeID]Handler

	// group assigns each node to a partition group; nodes in different
	// groups cannot reach each other. Empty map = fully connected.
	group map[NodeID]int

	seq  uint64
	Stat Stats
}

// New builds a network on clk. link shapes every link; seed drives the
// jitter; inj may be nil (no injection).
func New(clk *simclock.Clock, link LinkConfig, seed int64, inj *faultinject.Injector) *Network {
	link.fill()
	if inj == nil {
		inj = faultinject.New()
	}
	RegisterSites(inj)
	return &Network{
		clk:      clk,
		rng:      rand.New(rand.NewSource(seed)),
		inj:      inj,
		link:     link,
		handlers: make(map[NodeID]Handler),
		group:    make(map[NodeID]int),
	}
}

// Register binds a delivery handler to a node. Re-registering replaces the
// handler (a restarted node re-binds).
func (n *Network) Register(id NodeID, h Handler) { n.handlers[id] = h }

// Partition splits the network into the given groups: nodes in different
// groups (or in no group) cannot exchange messages until Heal. In-flight
// messages crossing a new partition boundary are dropped at delivery time —
// the wire was cut while they were on it.
func (n *Network) Partition(groups ...[]NodeID) {
	n.group = make(map[NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			n.group[id] = gi + 1
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() { n.group = make(map[NodeID]int) }

// Reachable reports whether a message from a would currently reach b.
func (n *Network) Reachable(a, b NodeID) bool {
	if len(n.group) == 0 {
		return true
	}
	ga, gb := n.group[a], n.group[b]
	return ga != 0 && ga == gb
}

// Send offers one message to the fabric. Delivery (if any) happens via the
// destination's handler when the clock reaches the scheduled time. Sending
// to a node with no handler silently drops (the host is down).
func (n *Network) Send(from, to NodeID, payload any) {
	n.seq++
	n.Stat.Sent++
	msg := Message{From: from, To: to, Payload: payload, Seq: n.seq}

	if !n.Reachable(from, to) {
		n.Stat.PartitionDrops++
		return
	}
	if n.inj.Fail(SiteLinkDrop) {
		n.Stat.InjectedDrops++
		return
	}

	copies := 1
	if n.inj.Fail(SiteLinkDup) {
		copies = 2
		n.Stat.Duplicated++
	}

	var penalty time.Duration
	if n.inj.Fail(SiteLinkDelay) {
		penalty = 10 * n.link.Latency
		n.Stat.Delayed++
	}
	for i := 0; i < copies; i++ {
		d := n.link.Latency + penalty
		if n.link.Jitter > 0 {
			d += time.Duration(n.rng.Int63n(int64(n.link.Jitter)))
		}
		n.clk.AfterFunc(d, func() { n.deliver(msg) })
	}
}

func (n *Network) deliver(msg Message) {
	// The wire may have been cut after the message left.
	if !n.Reachable(msg.From, msg.To) {
		n.Stat.PartitionDrops++
		return
	}
	h, ok := n.handlers[msg.To]
	if !ok {
		n.Stat.Dropped++
		return
	}
	n.Stat.Delivered++
	h(msg)
}

// Now exposes the fabric clock.
func (n *Network) Now() time.Duration { return n.clk.Now() }

func (s Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d dup=%d delayed=%d partition-drops=%d injected-drops=%d",
		s.Sent, s.Delivered, s.Dropped, s.Duplicated, s.Delayed, s.PartitionDrops, s.InjectedDrops)
}
