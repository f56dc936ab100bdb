package host

import (
	"testing"

	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/internal/transport"
	"dsh/units"
)

const rate = 100 * units.Gbps

// wire records what the host transmits and can deliver packets back.
type wire struct {
	s    *sim.Simulator
	pkts []*packet.Packet
}

func (w *wire) Receive(p *packet.Packet) { w.pkts = append(w.pkts, p) }

func (w *wire) dataPackets() []*packet.Packet {
	var out []*packet.Packet
	for _, p := range w.pkts {
		if p.Type == packet.Data {
			out = append(out, p)
		}
	}
	return out
}

func newHost(t *testing.T, mutate func(*Config)) (*Host, *wire, *sim.Simulator) {
	t.Helper()
	s := sim.New()
	cfg := Config{
		Sim: s, ID: 0, Name: "h0", Rate: rate, Prop: units.Microsecond,
		Classes: 8, AckClass: 7, MTU: 1500, Header: 48,
		CNPInterval: 50 * units.Microsecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h := New(cfg)
	w := &wire{s: s}
	h.Port().Connect(w, s, packet.NewPool())
	return h, w, s
}

func flow(id int, size units.ByteSize) *transport.Flow {
	return &transport.Flow{
		ID: id, Src: 0, Dst: 1, Class: 0, Size: size,
		CC: transport.NewLineRate(), FinishedAt: -1,
	}
}

func TestSegmentation(t *testing.T) {
	h, w, s := newHost(t, nil)
	h.AddFlow(flow(1, 3000)) // 1452+1452+96 payload
	s.Run()
	data := w.dataPackets()
	if len(data) != 3 {
		t.Fatalf("sent %d packets, want 3", len(data))
	}
	var payload units.ByteSize
	for i, p := range data {
		payload += p.Payload
		if p.Size != p.Payload+48 {
			t.Errorf("packet %d wire size %d != payload+48", i, p.Size)
		}
		if p.Seq != data[0].Payload*units.ByteSize(i) {
			t.Errorf("packet %d seq %d", i, p.Seq)
		}
	}
	if payload != 3000 {
		t.Errorf("total payload %d, want 3000", payload)
	}
	if !data[2].Last || data[0].Last || data[1].Last {
		t.Error("Last flag misplaced")
	}
	if h.SentPackets() != 3 {
		t.Errorf("SentPackets = %d", h.SentPackets())
	}
}

func TestBackToBackAtLineRate(t *testing.T) {
	h, w, s := newHost(t, nil)
	h.AddFlow(flow(1, 15_000))
	s.Run()
	data := w.dataPackets()
	if len(data) < 2 {
		t.Fatal("need multiple packets")
	}
	// Packets must be serialized back to back: the NIC self-clocks.
	if got := data[1].SentAt - data[0].SentAt; got != units.TransmissionTime(1500, rate) {
		t.Errorf("spacing %v, want one serialization time", got)
	}
}

func TestPFCPausesClassAndResumes(t *testing.T) {
	h, w, s := newHost(t, nil)
	h.AddFlow(flow(1, 150_000))
	// Pause class 0 at t=1us, resume at t=20us.
	s.At(units.Microsecond, func() { h.Input().Receive(packet.NewPFC(0, true)) })
	s.At(20*units.Microsecond, func() { h.Input().Receive(packet.NewPFC(0, false)) })
	s.Run()
	proc := units.TransmissionTime(3840, rate)
	var inPause int
	for _, p := range w.dataPackets() {
		if p.SentAt > units.Microsecond+proc+120*units.Nanosecond && p.SentAt < 20*units.Microsecond+proc {
			inPause++
		}
	}
	if inPause != 0 {
		t.Errorf("%d data packets injected during pause window", inPause)
	}
	// The flow must still finish after resume.
	var total units.ByteSize
	for _, p := range w.dataPackets() {
		total += p.Payload
	}
	if total != 150_000 {
		t.Errorf("sent %d payload bytes, want all", total)
	}
}

func TestPortLevelPFCPausesEverything(t *testing.T) {
	h, w, s := newHost(t, nil)
	f := flow(1, 150_000)
	h.AddFlow(f)
	s.At(units.Microsecond, func() { h.Input().Receive(packet.NewPortPFC(true)) })
	s.RunUntil(50 * units.Microsecond)
	sentBefore := len(w.dataPackets())
	s.RunUntil(100 * units.Microsecond)
	if got := len(w.dataPackets()); got != sentBefore {
		t.Errorf("data kept flowing under port pause: %d -> %d", sentBefore, got)
	}
	h.Input().Receive(packet.NewPortPFC(false))
	s.Run()
	if f.Sent != f.Size {
		t.Error("flow did not finish after port resume")
	}
}

func TestReceiverGeneratesAcks(t *testing.T) {
	h, w, s := newHost(t, nil)
	// Deliver two data packets of a remote flow to this host.
	d1 := packet.NewData(9, 1, 0, 0, 0, 1452, 48)
	d2 := packet.NewData(9, 1, 0, 0, 1452, 1452, 48)
	d2.Last = true
	h.Input().Receive(d1)
	h.Input().Receive(d2)
	s.Run()
	var acks []*packet.Packet
	for _, p := range w.pkts {
		if p.Type == packet.Ack {
			acks = append(acks, p)
		}
	}
	if len(acks) != 2 {
		t.Fatalf("%d ACKs, want 2", len(acks))
	}
	if acks[0].Seq != 1452 || acks[1].Seq != 2904 {
		t.Errorf("cumulative acks = %d,%d", acks[0].Seq, acks[1].Seq)
	}
	if !acks[1].Last || acks[0].Last {
		t.Error("Last echo wrong")
	}
	if acks[0].Class != 7 {
		t.Errorf("ack class = %d, want 7", acks[0].Class)
	}
	if h.RxDataBytes() != 2904 {
		t.Errorf("RxDataBytes = %d", h.RxDataBytes())
	}
}

func TestCNPGenerationRateLimited(t *testing.T) {
	h, w, s := newHost(t, nil)
	// Three marked packets within 50us: only one CNP.
	for i := 0; i < 3; i++ {
		d := packet.NewData(9, 1, 0, 0, units.ByteSize(i)*100, 100, 48)
		d.ECNMarked = true
		h.Input().Receive(d)
	}
	s.RunUntil(40 * units.Microsecond)
	cnps := 0
	for _, p := range w.pkts {
		if p.Type == packet.CNP {
			cnps++
		}
	}
	if cnps != 1 {
		t.Fatalf("%d CNPs within interval, want 1", cnps)
	}
	// After the interval, another marked packet triggers a second CNP.
	s.At(60*units.Microsecond, func() {
		d := packet.NewData(9, 1, 0, 0, 300, 100, 48)
		d.ECNMarked = true
		h.Input().Receive(d)
	})
	s.Run()
	cnps = 0
	for _, p := range w.pkts {
		if p.Type == packet.CNP {
			cnps++
		}
	}
	if cnps != 2 {
		t.Errorf("%d CNPs total, want 2", cnps)
	}
}

func TestCNPDisabled(t *testing.T) {
	h, w, s := newHost(t, func(c *Config) { c.CNPInterval = 0 })
	d := packet.NewData(9, 1, 0, 0, 0, 100, 48)
	d.ECNMarked = true
	h.Input().Receive(d)
	s.Run()
	for _, p := range w.pkts {
		if p.Type == packet.CNP {
			t.Fatal("CNP generated with CNPInterval=0")
		}
	}
}

func TestFlowCompletionViaAck(t *testing.T) {
	var done *transport.Flow
	h, w, s := newHost(t, func(c *Config) {
		c.OnFlowDone = func(f *transport.Flow) { done = f }
	})
	f := flow(1, 1452)
	h.AddFlow(f)
	s.RunUntil(10 * units.Microsecond)
	if len(w.dataPackets()) != 1 {
		t.Fatal("flow packet not sent")
	}
	// Deliver the final ACK.
	ack := packet.NewAck(w.dataPackets()[0], 1452, 7)
	h.Input().Receive(ack)
	s.Run()
	if done == nil {
		t.Fatal("OnFlowDone not invoked")
	}
	if !f.Done() || f.FCT() <= 0 {
		t.Errorf("flow not finished: %+v", f)
	}
	if h.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows = %d", h.ActiveFlows())
	}
}

func TestDuplicateFinalAckTolerated(t *testing.T) {
	h, w, s := newHost(t, nil)
	f := flow(1, 100)
	h.AddFlow(f)
	s.RunUntil(10 * units.Microsecond)
	ack := packet.NewAck(w.dataPackets()[0], 100, 7)
	h.Input().Receive(ack)
	dup := *ack
	h.Input().Receive(&dup) // must not panic or double-complete
	s.Run()
}

func TestRoundRobinAcrossFlows(t *testing.T) {
	h, w, s := newHost(t, nil)
	h.AddFlow(flow(1, 30_000))
	h.AddFlow(flow(2, 30_000))
	s.Run()
	data := w.dataPackets()
	// Once both flows are active the scheduler must alternate; count the
	// first 20 packets (skipping the startup packet sent before flow 2
	// existed).
	counts := map[int]int{}
	for _, p := range data[1:21] {
		counts[p.FlowID]++
	}
	if counts[1] < 8 || counts[2] < 8 {
		t.Errorf("round robin unfair: %v", counts)
	}
}

func TestWindowCCBlocksUntilAck(t *testing.T) {
	// A 1-packet window: the host must stop after one packet and resume on
	// ACK delivery.
	h, w, s := newHost(t, nil)
	f := flow(1, 10_000)
	f.CC = &onePacketWindow{}
	h.AddFlow(f)
	s.RunUntil(100 * units.Microsecond)
	if got := len(w.dataPackets()); got != 1 {
		t.Fatalf("sent %d packets with closed window, want 1", got)
	}
	ack := packet.NewAck(w.dataPackets()[0], w.dataPackets()[0].Payload, 7)
	h.Input().Receive(ack)
	s.RunUntil(200 * units.Microsecond)
	if got := len(w.dataPackets()); got != 2 {
		t.Errorf("sent %d packets after ACK, want 2", got)
	}
}

// onePacketWindow allows a single unacked packet.
type onePacketWindow struct{}

func (*onePacketWindow) AllowSend(_ units.Time, f *transport.Flow, _ units.ByteSize) (bool, units.Time) {
	return f.Inflight() == 0, 0
}
func (*onePacketWindow) OnSend(units.Time, *transport.Flow, units.ByteSize) {}
func (*onePacketWindow) OnAck(units.Time, *transport.Flow, *packet.Packet)  {}
func (*onePacketWindow) OnCNP(units.Time, *transport.Flow)                  {}

func TestPacedCCWakesUp(t *testing.T) {
	// A pacing-only CC with a large gap: the host must schedule a wake-up
	// rather than spin or stall.
	h, w, s := newHost(t, nil)
	f := flow(1, 5_000)
	f.CC = &slowPacer{gap: 10 * units.Microsecond}
	h.AddFlow(f)
	s.Run()
	data := w.dataPackets()
	if len(data) != 4 {
		t.Fatalf("sent %d packets, want 4", len(data))
	}
	for i := 1; i < len(data); i++ {
		if gap := data[i].SentAt - data[i-1].SentAt; gap < 10*units.Microsecond {
			t.Errorf("pacing violated: gap %v", gap)
		}
	}
}

// slowPacer enforces a fixed inter-packet gap.
type slowPacer struct {
	gap  units.Time
	next units.Time
}

func (p *slowPacer) AllowSend(now units.Time, _ *transport.Flow, _ units.ByteSize) (bool, units.Time) {
	if now >= p.next {
		return true, 0
	}
	return false, p.next
}
func (p *slowPacer) OnSend(now units.Time, _ *transport.Flow, _ units.ByteSize) {
	p.next = now + p.gap
}
func (p *slowPacer) OnAck(units.Time, *transport.Flow, *packet.Packet) {}
func (p *slowPacer) OnCNP(units.Time, *transport.Flow)                 {}

func TestAddFlowValidation(t *testing.T) {
	h, _, _ := newHost(t, nil)
	for name, f := range map[string]*transport.Flow{
		"no CC":     {ID: 1, Src: 0, Dst: 1, Size: 100},
		"wrong src": {ID: 1, Src: 5, Dst: 1, Size: 100, CC: transport.NewLineRate()},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			h.AddFlow(f)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	for name, cfg := range map[string]Config{
		"no sim":     {Rate: rate},
		"no rate":    {Sim: s},
		"bad header": {Sim: s, Rate: rate, MTU: 100, Header: 100},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(cfg)
		})
	}
}

func TestAckForUnknownFlowIgnored(t *testing.T) {
	h, _, s := newHost(t, nil)
	h.Input().Receive(&packet.Packet{Type: packet.Ack, FlowID: 999, Seq: 100})
	h.Input().Receive(&packet.Packet{Type: packet.CNP, FlowID: 999})
	s.Run() // must not panic
}

func TestStaleRecvSlotPanics(t *testing.T) {
	h, _, _ := newHost(t, nil)
	fa := &transport.Flow{ID: 1, Src: 1, Dst: 0, Size: 100}
	h.RegisterRecv(fa)
	d := packet.NewData(1, 1, 0, 0, 0, 100, 48)
	d.Last = true
	d.DstSlot = fa.DstSlot
	h.Input().Receive(d) // final packet: the receive slot is recycled
	defer func() {
		if recover() == nil {
			t.Error("data on a recycled receive slot must panic, not alias new state")
		}
	}()
	stale := packet.NewData(1, 1, 0, 0, 100, 100, 48)
	stale.DstSlot = fa.DstSlot
	h.Input().Receive(stale)
}

func TestStaleSendSlotDoesNotAliasRecycledFlow(t *testing.T) {
	h, w, s := newHost(t, nil)
	f1 := flow(1, 100)
	h.AddFlow(f1)
	s.RunUntil(10 * units.Microsecond)
	d1 := w.dataPackets()[0]
	staleSlot := d1.SrcSlot
	h.Input().Receive(packet.NewAck(d1, 100, 7)) // completes f1, frees its slot
	s.RunUntil(20 * units.Microsecond)
	f2 := flow(2, 2000)
	h.AddFlow(f2)
	// The slot index must be reused with a new generation.
	s1, g1 := slotOf(staleSlot)
	s2, g2 := slotOf(f2.SrcSlot)
	if s1 != s2 {
		t.Fatalf("slot not recycled: %d then %d", s1, s2)
	}
	if g1 == g2 {
		t.Fatal("recycled slot kept its generation")
	}
	// An ACK carrying the stale handle must not credit the new flow.
	h.Input().Receive(&packet.Packet{Type: packet.Ack, FlowID: 1, Seq: 100, Last: true, SrcSlot: staleSlot})
	s.RunUntil(30 * units.Microsecond)
	if f2.Acked != 0 {
		t.Errorf("stale ACK credited recycled flow: Acked = %d", f2.Acked)
	}
}

func TestHostAccessors(t *testing.T) {
	h, _, _ := newHost(t, nil)
	if h.ID() != 0 || h.Name() != "h0" {
		t.Error("identity accessors wrong")
	}
	if h.MaxPayload() != 1452 {
		t.Errorf("MaxPayload = %d", h.MaxPayload())
	}
}
