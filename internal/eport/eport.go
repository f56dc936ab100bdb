// Package eport models the egress side of a network port: per-class FIFO
// queues, a DWRR scheduler with an optional strict-priority class, a
// non-preemptive transmitter with exact serialization and propagation
// delays, and the PFC pause state machine of Fig. 9 (queue-level and DSH's
// port-level states combined with an OR, §IV-D).
//
// PFC frames travel through a dedicated control queue that is served before
// everything else and is never paused; a control frame still waits for the
// in-progress packet to finish, which reproduces the PAUSE "waiting delay"
// (component ① of Eq. 1).
package eport

import (
	"fmt"

	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/units"
)

// Receiver consumes packets whose last bit has arrived over the wire.
type Receiver interface {
	Receive(pkt *packet.Packet)
}

// Hooks bundles the dataplane callbacks behind one interface value, with
// Config.HookID passed back on every call. A device with many ports (the
// switch, the host NIC) implements Hooks once and shares itself across all
// its ports.
type Hooks interface {
	// PortDeparture fires when a packet's last bit leaves the port (the
	// moment the MMU un-charges it). The cookie is the value passed to
	// Enqueue.
	PortDeparture(id int, pkt *packet.Packet, cookie int64)
	// PortDequeue fires when a non-PFC packet is picked for transmission,
	// before the first bit leaves; used for INT stamping. qlen is the
	// packet's class backlog after dequeue, tx the port's cumulative
	// transmitted bytes.
	PortDequeue(id int, pkt *packet.Packet, qlen, tx units.ByteSize)
	// PortIdle fires when the transmitter finds nothing eligible to send.
	// Hosts use it to inject the next flow packet.
	PortIdle(id int)
}

// Tracer observes packet departures for trace capture (see internal/wire).
// TraceDeparture fires once per packet, on the simulator goroutine, at the
// instant the last bit leaves the port — the same moment as PortDeparture —
// with the packet still owned by the port (implementations must not retain
// it). A single Tracer is shared by every port of a run, disambiguated by
// the port ID given to SetTracer.
type Tracer interface {
	TraceDeparture(port int32, at units.Time, pkt *packet.Packet)
}

// Config parameterises a port.
type Config struct {
	Sim  *sim.Simulator
	Rate units.BitRate
	Prop units.Time
	// Classes is the number of data classes (8 for PFC).
	Classes int
	// Quantum is the DWRR quantum (the evaluation uses 1600 B).
	Quantum units.ByteSize
	// StrictClass is served with strict priority over the DWRR classes
	// (reserved for ACKs in the evaluation); −1 disables it.
	StrictClass int
	// Hooks receives the port's dataplane callbacks, each called with
	// HookID (see Hooks). Required.
	Hooks  Hooks
	HookID int
}

type entry struct {
	pkt    *packet.Packet
	cookie int64
}

type classQueue struct {
	items []entry
	head  int
	bytes units.ByteSize
}

func (q *classQueue) len() int { return len(q.items) - q.head }

func (q *classQueue) push(e entry) {
	if len(q.items) == cap(q.items) {
		// Grow ×4 from a 16-entry floor: warming a deep queue costs a few
		// slab allocations instead of one per doubling from size 1.
		ncap := 4 * cap(q.items)
		if ncap < 16 {
			ncap = 16
		}
		items := make([]entry, len(q.items), ncap)
		copy(items, q.items)
		q.items = items
	}
	q.items = append(q.items, e)
	q.bytes += e.pkt.Size
}

func (q *classQueue) peek() entry { return q.items[q.head] }

func (q *classQueue) pop() entry {
	e := q.items[q.head]
	q.items[q.head] = entry{}
	q.head++
	q.bytes -= e.pkt.Size
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = entry{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return e
}

// classState is everything the port tracks per data class, consolidated in
// one struct so a port costs one allocation (or zero, via clsBuf) instead
// of one slice per field.
type classState struct {
	q       classQueue
	deficit units.ByteSize
	granted bool

	paused     bool
	pauseStart units.Time
	pausedFor  units.Time
}

// Port is one egress port. It is single-goroutine (event-loop) code: no
// locking, deterministic behaviour.
type Port struct {
	cfg  Config
	peer Receiver
	up   bool

	// epoch counts up→down transitions of the link. Every delivery event
	// carries the epoch current at transmit time; a packet whose epoch no
	// longer matches at arrival fell off the wire while the link was down —
	// even if the link has since come back up — and is dropped instead of
	// delivered (the stale-delivery guard the fault layer relies on).
	epoch int64

	// wireDrops counts packets serialized into a dead link (txDone, run on
	// the sending simulator); lateDrops counts packets invalidated mid-flight
	// by a flap or arriving while down (deliver, run on the receiving
	// simulator). Each counter has exactly one writing simulator, so a wire
	// between two LPs never races on them.
	wireDrops int64
	lateDrops int64

	// extra is a one-way propagation-delay skew added on top of cfg.Prop
	// (fault injection: asymmetric latency). lastDeliverAt clamps delivery
	// times to stay non-decreasing when the skew shrinks, preserving the
	// wire's FIFO order for the delivery Channel and the peer.
	extra         units.Time
	lastDeliverAt units.Time

	ctrl classQueue
	cls  []classState
	rr   int

	pausedPort bool

	transmitting bool
	txBytes      units.ByteSize

	// Port-level pause-time accounting (for Fig. 11-style metrics).
	portPauseStart units.Time
	portPausedFor  units.Time
	pauseFrames    int64

	// tx is the entry being serialized (valid while transmitting); txDrop
	// marks it as falling off a down link, to be released at completion.
	tx     entry
	txDrop bool

	// Pre-bound event callbacks: scheduling through these never allocates
	// (see sim.Action).
	txDoneAct  txDoneAction
	deliverAct deliverAction

	// tracer, when non-nil, receives every departure (trace capture);
	// traceID is the run-global port ID it reports.
	tracer  Tracer
	traceID int32

	// rpool is the receiving device's packet pool: deliver re-stamps every
	// arriving packet onto it, so each pool is only ever touched by the
	// simulator its device runs on.
	rpool *packet.Pool

	// ch buffers in-flight deliveries on the receiving device's simulator.
	// The transmitter is non-preemptive and the propagation delay constant,
	// so delivery times are non-decreasing — the FIFO stream a sim.Channel
	// turns into one resident heap event instead of one per packet in
	// flight.
	ch sim.Channel

	// clsBuf backs cls for the standard class counts, so building a port
	// allocates nothing beyond the Port itself.
	clsBuf [packet.NumClasses]classState
}

// txDoneAction fires when the in-flight packet's last bit leaves the port.
type txDoneAction struct{ p *Port }

func (a *txDoneAction) Run(any, int64) { a.p.txDone() }

// deliverAction fires when a packet's last bit arrives at the peer; n is
// the link epoch at transmit time.
type deliverAction struct{ p *Port }

func (a *deliverAction) Run(arg any, n int64) { a.p.deliver(arg.(*packet.Packet), n) }

// New builds a port. Connect must be called before any packet is sent.
func New(cfg Config) *Port {
	p := &Port{}
	NewInto(p, cfg)
	return p
}

// NewInto initialises a zero Port in place; device builders with many
// ports use it to slab- or field-allocate them instead of paying one heap
// object per port.
func NewInto(p *Port, cfg Config) {
	if cfg.Sim == nil || cfg.Rate <= 0 || cfg.Classes <= 0 || cfg.Hooks == nil {
		panic(fmt.Sprintf("eport: invalid config %+v", cfg))
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1600
	}
	p.cfg = cfg
	p.up = true
	p.portPauseStart = -1
	if cfg.Classes <= len(p.clsBuf) {
		p.cls = p.clsBuf[:cfg.Classes]
	} else {
		p.cls = make([]classState, cfg.Classes)
	}
	p.txDoneAct = txDoneAction{p: p}
	p.deliverAct = deliverAction{p: p}
}

// Connect attaches the receiving end of the wire: peer is the device that
// consumes arrivals, rx the simulator it runs on and pool its packet pool.
// The delivery channel lives on rx and is pushed from the port's own
// simulator; the link's propagation delay is its minimum delay.
func (p *Port) Connect(peer Receiver, rx *sim.Simulator, pool *packet.Pool) {
	p.peer = peer
	p.rpool = pool
	p.ch.InitFrom(p.cfg.Sim, rx, p.cfg.Prop, &p.deliverAct)
}

// SetTracer attaches (or, with nil, detaches) a departure tracer; id is
// the run-global port ID reported with every frame. The tracer adds one
// nil check to txDone when unset and must not be changed mid-run on a
// port that has already transmitted (the trace would start mid-stream).
func (p *Port) SetTracer(t Tracer, id int32) {
	p.tracer = t
	p.traceID = id
}

// Rate returns the link rate.
func (p *Port) Rate() units.BitRate { return p.cfg.Rate }

// Classes returns the number of data classes the port serves.
func (p *Port) Classes() int { return p.cfg.Classes }

// Prop returns the link propagation delay.
func (p *Port) Prop() units.Time { return p.cfg.Prop }

// SetUp marks the link up or down. A down link discards packets in flight
// (counted by WireDrops); routing is expected to avoid *failed* links, while
// the fault layer flaps links at runtime on purpose. Every up→down
// transition advances the link epoch, so a packet that was on the wire when
// the link dropped is discarded at arrival even if the link has recovered
// by then — a flap never delivers a stale packet.
func (p *Port) SetUp(up bool) {
	if p.up && !up {
		p.epoch++
	}
	p.up = up
}

// Up reports link status.
func (p *Port) Up() bool { return p.up }

// WireDrops counts packets this port lost to a down link: serialized while
// down, invalidated mid-flight by a flap, or arriving while down.
func (p *Port) WireDrops() int64 { return p.wireDrops + p.lateDrops }

// SetExtraDelay adds a one-way propagation-delay skew on top of the
// configured Prop (fault injection). Deliveries already in flight keep
// their times; when the skew shrinks, subsequent deliveries are clamped so
// arrival order stays FIFO.
func (p *Port) SetExtraDelay(d units.Time) {
	if d < 0 {
		panic(fmt.Sprintf("eport: negative extra delay %v", d))
	}
	p.extra = d
}

// ExtraDelay returns the current one-way delay skew.
func (p *Port) ExtraDelay() units.Time { return p.extra }

// QueuedPackets counts packets resident in this port's queues: the control
// queue, every class queue, and a packet being serialized into a down link
// (which lives nowhere else until txDone releases it). A packet being
// serialized into an *up* link is already on the wire and is counted by
// InFlight instead.
func (p *Port) QueuedPackets() int {
	n := p.ctrl.len()
	for i := range p.cls {
		n += p.cls[i].q.len()
	}
	if p.transmitting && p.txDrop {
		n++
	}
	return n
}

// InFlight counts packets buffered in the delivery channel (on the wire).
// A channel whose pushes cross logical processes counts a packet only once
// the receiving side has drained it from the engine's mailbox (see
// sim.Channel.Len).
func (p *Port) InFlight() int { return p.ch.Len() }

// Enqueue appends a data-path packet to its class queue and kicks the
// transmitter. The cookie is returned through Hooks.PortDeparture.
func (p *Port) Enqueue(pkt *packet.Packet, cookie int64) {
	cls := int(pkt.Class)
	if cls >= p.cfg.Classes {
		panic(fmt.Sprintf("eport: class %d out of range", cls))
	}
	p.cls[cls].q.push(entry{pkt: pkt, cookie: cookie})
	p.trySend()
}

// EnqueueControl appends a PFC frame to the control queue, which is served
// before all data classes and is never paused.
func (p *Port) EnqueueControl(pkt *packet.Packet) {
	p.ctrl.push(entry{pkt: pkt})
	p.trySend()
}

// ClassBacklog returns the queued bytes of a class.
func (p *Port) ClassBacklog(cls packet.Class) units.ByteSize { return p.cls[cls].q.bytes }

// ClassPackets returns the queued packet count of a class.
func (p *Port) ClassPackets(cls packet.Class) int { return p.cls[cls].q.len() }

// Backlog returns the total queued bytes across data classes.
func (p *Port) Backlog() units.ByteSize {
	var total units.ByteSize
	for i := range p.cls {
		total += p.cls[i].q.bytes
	}
	return total
}

// TxBytes returns cumulative transmitted bytes (all packet types).
func (p *Port) TxBytes() units.ByteSize { return p.txBytes }

// Transmitting reports whether a packet is currently being serialized.
func (p *Port) Transmitting() bool { return p.transmitting }

// SetClassPaused applies a received queue-level PAUSE/RESUME to this port.
func (p *Port) SetClassPaused(cls packet.Class, paused bool) {
	now := p.cfg.Sim.Now()
	c := &p.cls[cls]
	if c.paused == paused {
		return
	}
	c.paused = paused
	if paused {
		p.pauseFrames++
		c.pauseStart = now
	} else {
		c.pausedFor += now - c.pauseStart
		p.trySend()
	}
}

// SetPortPaused applies a received port-level PAUSE/RESUME to this port.
func (p *Port) SetPortPaused(paused bool) {
	now := p.cfg.Sim.Now()
	if p.pausedPort == paused {
		return
	}
	p.pausedPort = paused
	if paused {
		p.pauseFrames++
		p.portPauseStart = now
	} else {
		p.portPausedFor += now - p.portPauseStart
		p.portPauseStart = -1
		p.trySend()
	}
}

// ClassPaused reports whether a class is paused (by either level).
func (p *Port) ClassPaused(cls packet.Class) bool { return p.cls[cls].paused || p.pausedPort }

// PortPaused reports whether the whole port is paused.
func (p *Port) PortPaused() bool { return p.pausedPort }

// ClassPausedTime returns the cumulative paused duration of a class
// (queue-level only), including an in-progress pause.
func (p *Port) ClassPausedTime(cls packet.Class) units.Time {
	c := &p.cls[cls]
	d := c.pausedFor
	if c.paused {
		d += p.cfg.Sim.Now() - c.pauseStart
	}
	return d
}

// PortPausedTime returns the cumulative port-level paused duration.
func (p *Port) PortPausedTime() units.Time {
	d := p.portPausedFor
	if p.pausedPort {
		d += p.cfg.Sim.Now() - p.portPauseStart
	}
	return d
}

// PauseFrames returns how many PAUSE transitions this port has received.
func (p *Port) PauseFrames() int64 { return p.pauseFrames }

// advance moves the DWRR pointer to the next class, ending the current
// class's visit (its next visit grants a fresh quantum).
func (p *Port) advance() {
	p.cls[p.rr].granted = false
	p.rr = (p.rr + 1) % p.cfg.Classes
}

// eligible reports whether a data class may transmit now.
func (p *Port) eligible(cls int) bool {
	return !p.pausedPort && !p.cls[cls].paused && p.cls[cls].q.len() > 0
}

// pick selects the next packet: control, then strict class, then DWRR.
func (p *Port) pick() (entry, bool) {
	if p.ctrl.len() > 0 {
		return p.ctrl.pop(), true
	}
	if s := p.cfg.StrictClass; s >= 0 && p.eligible(s) {
		return p.cls[s].q.pop(), true
	}
	// Deficit round robin: each arrival of the round-robin pointer at a
	// backlogged class grants one quantum; the class is served while its
	// deficit covers the head packet, then the pointer moves on. Multiple
	// sweeps let deficits accumulate for packets larger than the quantum.
	n := p.cfg.Classes
	for sweep := 0; sweep < 4096; sweep++ {
		any := false
		for i := 0; i < n; i++ {
			c := &p.cls[p.rr]
			if p.rr == p.cfg.StrictClass || !p.eligible(p.rr) {
				if c.q.len() == 0 {
					c.deficit = 0
				}
				p.advance()
				continue
			}
			any = true
			if !c.granted {
				c.deficit += p.cfg.Quantum
				c.granted = true
			}
			head := c.q.peek()
			if c.deficit >= head.pkt.Size {
				e := c.q.pop()
				c.deficit -= e.pkt.Size
				if c.q.len() == 0 {
					c.deficit = 0
					p.advance()
				}
				return e, true
			}
			p.advance()
		}
		if !any {
			return entry{}, false
		}
	}
	panic("eport: DWRR made no progress in 4096 sweeps (packet vastly larger than quantum?)")
}

// trySend starts the next transmission if the port is idle.
func (p *Port) trySend() {
	if p.transmitting {
		return
	}
	e, ok := p.pick()
	if !ok {
		p.cfg.Hooks.PortIdle(p.cfg.HookID)
		return
	}
	p.transmit(e)
}

func (p *Port) transmit(e entry) {
	p.transmitting = true
	pkt := e.pkt
	if pkt.Type != packet.PFC {
		p.cfg.Hooks.PortDequeue(p.cfg.HookID, pkt, p.cls[pkt.Class].q.bytes, p.txBytes)
	}
	txTime := units.TransmissionTime(pkt.Size, p.cfg.Rate)
	s := p.cfg.Sim
	p.tx = e
	p.txDrop = !p.up
	s.ScheduleAction(txTime, &p.txDoneAct, nil, 0)
	if p.peer == nil {
		panic("eport: transmit before Connect")
	}
	if p.up {
		// Arrival time includes any injected delay skew; the clamp keeps
		// delivery times non-decreasing across skew changes (with zero skew
		// arrival times are strictly increasing, so it never engages).
		at := s.Now() + txTime + p.cfg.Prop + p.extra
		if at < p.lastDeliverAt {
			at = p.lastDeliverAt
		}
		p.lastDeliverAt = at
		p.ch.PushAt(at, pkt, p.epoch)
	}
}

// txDone completes the in-flight transmission (the transmitter is
// non-preemptive, so there is exactly one).
func (p *Port) txDone() {
	e := p.tx
	drop := p.txDrop
	p.tx = entry{}
	p.transmitting = false
	p.txBytes += e.pkt.Size
	if p.tracer != nil {
		p.tracer.TraceDeparture(p.traceID, p.cfg.Sim.Now(), e.pkt)
	}
	p.cfg.Hooks.PortDeparture(p.cfg.HookID, e.pkt, e.cookie)
	if drop {
		// The link was down when serialization started: the packet fell off
		// the wire and has no receiver, so the port is its final owner.
		p.wireDrops++
		e.pkt.Release()
	}
	p.trySend()
}

// deliver hands a packet whose last bit has crossed the wire to the peer,
// unless the link is down or went down while it was in flight (the epoch
// stamped at transmit no longer matches). It runs on the receiving device's
// simulator and first re-stamps the packet onto that device's pool, so a
// late drop releases it there too.
func (p *Port) deliver(pkt *packet.Packet, epoch int64) {
	pkt.Repool(p.rpool)
	if p.up && epoch == p.epoch {
		p.peer.Receive(pkt)
	} else {
		p.lateDrops++
		pkt.Release()
	}
}
