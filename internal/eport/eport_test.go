package eport

import (
	"testing"

	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/units"
)

// collector is the test rig's far end of the wire (Receiver) and the
// port's Hooks: it records deliveries with their arrival times, and every
// callback the port makes.
type collector struct {
	s    *sim.Simulator
	pkts []*packet.Packet
	at   []units.Time

	departed []*packet.Packet
	cookies  []int64
	qlens    []units.ByteSize
	txs      []units.ByteSize
	idles    int
}

func (c *collector) Receive(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.s.Now())
}

func (c *collector) PortDeparture(_ int, pkt *packet.Packet, cookie int64) {
	c.departed = append(c.departed, pkt)
	c.cookies = append(c.cookies, cookie)
}

func (c *collector) PortDequeue(_ int, _ *packet.Packet, qlen, tx units.ByteSize) {
	c.qlens = append(c.qlens, qlen)
	c.txs = append(c.txs, tx)
}

func (c *collector) PortIdle(int) { c.idles++ }

func newTestPort(s *sim.Simulator, mutate func(*Config)) (*Port, *collector) {
	c := &collector{s: s}
	cfg := Config{
		Sim:         s,
		Rate:        100 * units.Gbps,
		Prop:        2 * units.Microsecond,
		Classes:     8,
		Quantum:     1600,
		StrictClass: 7,
		Hooks:       c,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p := New(cfg)
	p.Connect(c, s, packet.NewPool())
	return p, c
}

func data(cls packet.Class, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Type: packet.Data, Size: size, Class: cls}
}

func TestSerializationAndPropagation(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	// 1500B at 100G = 120ns; + 2us prop = 2120ns.
	if want := 2120 * units.Nanosecond; c.at[0] != want {
		t.Errorf("arrival at %v, want %v", c.at[0], want)
	}
	if p.TxBytes() != 1500 {
		t.Errorf("TxBytes = %d, want 1500", p.TxBytes())
	}
}

func TestNonPreemptiveBackToBack(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(c.pkts))
	}
	if got := c.at[1] - c.at[0]; got != 120*units.Nanosecond {
		t.Errorf("spacing %v, want 120ns (back-to-back serialization)", got)
	}
}

func TestControlFrameWaitsForCurrentPacket(t *testing.T) {
	// The PFC "waiting delay": a control frame enqueued mid-transmission
	// goes out right after the current packet, before queued data.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(0, 1500), 0)
	s.Schedule(10*units.Nanosecond, func() {
		p.EnqueueControl(packet.NewPFC(0, true))
	})
	s.Run()
	if len(c.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(c.pkts))
	}
	if c.pkts[1].Type != packet.PFC {
		t.Errorf("second delivery is %v, want PFC (control priority)", c.pkts[1].Type)
	}
	// PFC last bit leaves at 120ns(data)+5.12ns; arrives +2us.
	want := 120*units.Nanosecond + units.TransmissionTime(64, 100*units.Gbps) + 2*units.Microsecond
	if c.at[1] != want {
		t.Errorf("PFC arrival %v, want %v", c.at[1], want)
	}
}

func TestClassPauseBlocksOnlyThatClass(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetClassPaused(0, true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(1, 1000), 0)
	s.Run()
	if len(c.pkts) != 1 || c.pkts[0].Class != 1 {
		t.Fatalf("want only class 1 delivered, got %d pkts", len(c.pkts))
	}
	p.SetClassPaused(0, false)
	s.Run()
	if len(c.pkts) != 2 {
		t.Errorf("class 0 not delivered after resume")
	}
}

func TestPortPauseBlocksAllClassesIncludingStrict(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(7, 64), 0) // strict ACK class
	s.Run()
	if len(c.pkts) != 0 {
		t.Fatalf("port pause leaked %d packets", len(c.pkts))
	}
	p.SetPortPaused(false)
	s.Run()
	if len(c.pkts) != 2 {
		t.Errorf("delivered %d after resume, want 2", len(c.pkts))
	}
}

func TestControlBypassesPortPause(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.EnqueueControl(packet.NewPortPFC(true))
	s.Run()
	if len(c.pkts) != 1 || c.pkts[0].Type != packet.PFC {
		t.Fatal("PFC control frame must bypass port pause")
	}
}

func TestStrictClassBeforeDWRR(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(1, 1500), 0)
	p.Enqueue(data(7, 64), 0)
	s.Run()
	// First pick happens at enqueue of class 0 (port idle), so class 0 goes
	// first; the strict class must preempt the remaining order.
	if c.pkts[1].Class != 7 {
		t.Errorf("second delivery class %d, want 7 (strict)", c.pkts[1].Class)
	}
}

func TestDWRRFairness(t *testing.T) {
	// Two busy classes with equal quantum must share the wire ~evenly in
	// bytes, even with different packet sizes.
	s := sim.New()
	p, c := newTestPort(s, nil)
	for i := 0; i < 200; i++ {
		p.Enqueue(data(0, 1500), 0)
	}
	for i := 0; i < 600; i++ {
		p.Enqueue(data(1, 500), 0)
	}
	// Run until ~half the total has been transmitted, then compare.
	s.RunUntil(25 * units.Microsecond) // ~312KB at 100G
	var done [8]units.ByteSize
	for _, pkt := range c.departed {
		done[pkt.Class] += pkt.Size
	}
	if done[0] == 0 || done[1] == 0 {
		t.Fatal("a class was starved")
	}
	ratio := float64(done[0]) / float64(done[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("byte ratio %v, want ~1.0 (DWRR fairness)", ratio)
	}
}

func TestDWRRSkipsPausedAndServesOthers(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	for i := 0; i < 5; i++ {
		p.Enqueue(data(2, 1000), 0)
		p.Enqueue(data(3, 1000), 0)
	}
	p.SetClassPaused(2, true)
	s.Run()
	var cls3 int
	for _, pk := range c.pkts {
		if pk.Class == 3 {
			cls3++
		}
	}
	if cls3 != 5 {
		t.Errorf("class 3 delivered %d, want 5", cls3)
	}
}

func TestPauseTimeAccounting(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	s.Schedule(10*units.Microsecond, func() { p.SetClassPaused(0, true) })
	s.Schedule(35*units.Microsecond, func() { p.SetClassPaused(0, false) })
	s.Schedule(40*units.Microsecond, func() { p.SetPortPaused(true) })
	s.Schedule(70*units.Microsecond, func() { p.SetPortPaused(false) })
	s.Run()
	if got := p.ClassPausedTime(0); got != 25*units.Microsecond {
		t.Errorf("ClassPausedTime = %v, want 25us", got)
	}
	if got := p.PortPausedTime(); got != 30*units.Microsecond {
		t.Errorf("PortPausedTime = %v, want 30us", got)
	}
	if p.PauseFrames() != 2 {
		t.Errorf("PauseFrames = %d, want 2", p.PauseFrames())
	}
}

func TestPauseTimeIncludesOngoing(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	s.Schedule(10*units.Microsecond, func() { p.SetClassPaused(4, true) })
	s.Schedule(50*units.Microsecond, func() {
		if got := p.ClassPausedTime(4); got != 40*units.Microsecond {
			t.Errorf("ongoing ClassPausedTime = %v, want 40us", got)
		}
	})
	s.Run()
}

func TestRedundantPauseIsIdempotent(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	p.SetClassPaused(0, true)
	p.SetClassPaused(0, true)
	if p.PauseFrames() != 1 {
		t.Errorf("PauseFrames = %d, want 1", p.PauseFrames())
	}
	p.SetClassPaused(0, false)
	p.SetClassPaused(0, false)
	if got := p.ClassPausedTime(0); got != 0 {
		t.Errorf("paused time %v, want 0 (instant toggle)", got)
	}
}

func TestPortDepartureCookie(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 100), 0xBEEF)
	s.Run()
	if len(c.cookies) != 1 || c.cookies[0] != 0xBEEF {
		t.Errorf("cookies = %#x, want [0xBEEF]", c.cookies)
	}
}

func TestPortDequeueStats(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(0, 1000), 0)
	p.SetPortPaused(false)
	s.Run()
	if len(c.qlens) != 2 || c.qlens[0] != 1000 || c.qlens[1] != 0 {
		t.Errorf("qlens = %v, want [1000 0]", c.qlens)
	}
	if len(c.txs) != 2 || c.txs[0] != 0 || c.txs[1] != 1000 {
		t.Errorf("txs = %v, want [0 1000]", c.txs)
	}
}

func TestPortIdleFires(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 100), 0)
	s.Run()
	if c.idles == 0 {
		t.Error("PortIdle never fired after queue drained")
	}
	if p.Transmitting() {
		t.Error("still transmitting after drain")
	}
}

func TestLinkDownDiscards(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetUp(false)
	p.Enqueue(data(0, 100), 0)
	s.Run()
	if len(c.pkts) != 0 {
		t.Error("down link delivered a packet")
	}
	if !p.Up() == false && p.Up() {
		t.Error("Up() inconsistent")
	}
	// Transmitter must not wedge: bring the link up and send again.
	p.SetUp(true)
	p.Enqueue(data(0, 100), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Error("link did not recover after SetUp(true)")
	}
}

func TestBacklogAccounting(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	p.SetPortPaused(true)
	p.Enqueue(data(0, 1000), 0)
	p.Enqueue(data(1, 500), 0)
	if p.Backlog() != 1500 {
		t.Errorf("Backlog = %d, want 1500", p.Backlog())
	}
	if p.ClassBacklog(0) != 1000 || p.ClassPackets(0) != 1 {
		t.Errorf("class 0 backlog/packets wrong")
	}
	p.SetPortPaused(false)
	s.Run()
	if p.Backlog() != 0 {
		t.Errorf("Backlog = %d after drain, want 0", p.Backlog())
	}
}

func TestEnqueueBadClassPanics(t *testing.T) {
	s := sim.New()
	p, _ := newTestPort(s, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Enqueue(data(8, 100), 0)
}

func TestNewWithoutHooksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Sim: sim.New(), Rate: units.Gbps, Classes: 8})
}

func TestTransmitWithoutConnectPanics(t *testing.T) {
	s := sim.New()
	p := New(Config{Sim: s, Rate: units.Gbps, Classes: 8, Hooks: &collector{s: s}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Enqueue(data(0, 100), 0)
}

func TestQueueCompaction(t *testing.T) {
	// Push/pop far more than the compaction threshold to exercise the ring
	// maintenance paths.
	s := sim.New()
	p, c := newTestPort(s, nil)
	const n = 1000
	for i := 0; i < n; i++ {
		p.Enqueue(data(0, 100), int64(i))
	}
	s.Run()
	if len(c.pkts) != n {
		t.Errorf("delivered %d, want %d", len(c.pkts), n)
	}
}

func TestLinkFlapMidFlightDropsStalePacket(t *testing.T) {
	// A link that goes down and comes back up while a packet is on the wire
	// must NOT deliver the stale packet: its transmit-time epoch no longer
	// matches. The channel's resident heap event still fires (as a drop), so
	// the stream is not stranded and later packets flow normally.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0) // last bit leaves at 120ns, arrives at 2120ns
	// Flap entirely within the flight window.
	s.At(500*units.Nanosecond, func() { p.SetUp(false) })
	s.At(800*units.Nanosecond, func() { p.SetUp(true) })
	s.Run()
	if len(c.pkts) != 0 {
		t.Fatalf("stale packet delivered through a mid-flight flap (%d deliveries)", len(c.pkts))
	}
	if got := p.WireDrops(); got != 1 {
		t.Errorf("WireDrops = %d, want 1", got)
	}
	if p.InFlight() != 0 {
		t.Errorf("InFlight = %d after drop, want 0 (stranded channel entry)", p.InFlight())
	}
	// The link recovered: the next packet must be delivered normally.
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("post-flap packet not delivered (channel stranded?)")
	}
	if got := p.WireDrops(); got != 1 {
		t.Errorf("WireDrops = %d after recovery, want still 1", got)
	}
}

func TestLinkFlapBetweenPacketsKeepsLaterDelivery(t *testing.T) {
	// Two back-to-back packets; the flap happens while both are in flight.
	// Both carry the pre-flap epoch and both drop; a third packet sent after
	// recovery is delivered. This pins the epoch check on the Channel path
	// with more than one resident entry.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.Enqueue(data(0, 1500), 0)
	p.Enqueue(data(0, 1500), 0)
	s.At(300*units.Nanosecond, func() { p.SetUp(false) })
	s.At(400*units.Nanosecond, func() { p.SetUp(true) })
	s.Run()
	if len(c.pkts) != 0 {
		t.Fatalf("flap delivered %d stale packets", len(c.pkts))
	}
	if got := p.WireDrops(); got != 2 {
		t.Errorf("WireDrops = %d, want 2", got)
	}
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("delivery did not resume after flap")
	}
}

func TestSetExtraDelaySkewsOneWay(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetExtraDelay(3 * units.Microsecond)
	p.Enqueue(data(0, 1500), 0)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("skewed packet not delivered")
	}
	// 120ns serialization + 2us prop + 3us skew.
	if want := 5120 * units.Nanosecond; c.at[0] != want {
		t.Errorf("arrival at %v, want %v", c.at[0], want)
	}
}

func TestSetExtraDelayShrinkKeepsFIFO(t *testing.T) {
	// Shrinking the skew between two transmissions must not reorder the
	// wire: the second packet's arrival is clamped to the first's.
	s := sim.New()
	p, c := newTestPort(s, nil)
	p.SetExtraDelay(10 * units.Microsecond)
	p.Enqueue(data(0, 1500), 0)
	s.At(100*units.Nanosecond, func() { p.SetExtraDelay(0) })
	s.At(130*units.Nanosecond, func() { p.Enqueue(data(0, 1500), 0) })
	s.Run()
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(c.pkts))
	}
	if c.at[1] < c.at[0] {
		t.Errorf("wire reordered: second at %v before first at %v", c.at[1], c.at[0])
	}
}

// releaser is a receiving device that consumes every arrival at once.
type releaser struct{ got int }

func (r *releaser) Receive(p *packet.Packet) {
	r.got++
	p.Release()
}

// TestCrossLPDeliveryReleasesIntoReceivingPool pins pool ownership on a
// wire between two LPs: the port transmits on LP a from a's pool, and every
// packet that reaches LP b — delivered and released by the receiver, or
// dropped late by a mid-flight flap — must return to b's pool, never to
// a's. The flap falls between two transmission starts, so no packet is
// serialized into the dead link (whose drop is the sender's to release).
func TestCrossLPDeliveryReleasesIntoReceivingPool(t *testing.T) {
	coord := sim.New()
	par := sim.NewParallel(coord, 2)
	sa, _ := par.NewLP()
	sb, _ := par.NewLP()
	poolA, poolB := packet.NewPool(), packet.NewPool()
	p, _ := newTestPort(sa, nil)
	rx := &releaser{}
	p.Connect(rx, sb, poolB)

	const n = 20
	coord.At(0, func() {
		for i := 0; i < n; i++ {
			p.Enqueue(poolA.Data(1, 0, 1, 0, 0, 1452, 48), 0)
		}
	})
	// Transmissions start every 120 ns; packets 0 and 1 are on the wire.
	coord.At(130*units.Nanosecond, func() { p.SetUp(false) })
	coord.At(135*units.Nanosecond, func() { p.SetUp(true) })
	par.RunUntil(100 * units.Microsecond)

	if got := p.WireDrops(); got != 2 {
		t.Fatalf("WireDrops = %d, want the 2 packets in flight at the flap", got)
	}
	if rx.got != n-2 {
		t.Fatalf("delivered %d packets, want %d", rx.got, n-2)
	}
	gets, putsA, _ := poolA.Stats()
	if gets != n || putsA != 0 {
		t.Errorf("sending pool: %d gets, %d puts; want %d gets and no puts", gets, putsA, n)
	}
	if _, putsB, _ := poolB.Stats(); putsB != n {
		t.Errorf("receiving pool: %d puts, want all %d packets", putsB, n)
	}
}
