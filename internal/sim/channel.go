package sim

import (
	"fmt"

	"dsh/units"
)

// Channel schedules a FIFO stream of deliveries through one resident heap
// event instead of one event per entry. It exploits the invariant of a
// point-to-point link with constant propagation delay: entries are pushed in
// non-decreasing due-time order, so only the head of line can be the next to
// fire. Entries wait in a pooled ring buffer; the channel keeps exactly one
// event on the simulator heap — the head's — and re-arms itself when it
// fires. Heap size then scales with the number of streams (topology size),
// not with instantaneous load.
//
// Ordering is identical-by-construction to scheduling every entry with
// AtAction: Push reserves the engine's global sequence number immediately,
// and the head re-arm schedules under the stored (at, seq) pair. At any
// moment the heap holds the channel's minimum entry under its original key,
// so same-timestamp interleaving with the rest of the event set is
// bit-identical to the one-event-per-entry implementation.
//
// Push panics if the due time is below the current tail's — a channel is for
// streams that are FIFO by physics, not a general priority queue.
//
// A channel lives on the simulator its deliveries fire on. Its pushes may
// come from another logical process of the same Parallel (a bridged
// channel, see InitFrom): the key is then reserved on the pushing LP and the
// entry reaches the ring through the Parallel's mailbox, so the ring and its
// head event are only ever touched by the receiving LP.
type Channel struct {
	s *Simulator
	// from is the simulator whose events push: s itself, or for a bridged
	// channel the sending LP, with eid its mailbox edge and lat the
	// smallest push-ahead that edge's lookahead allows.
	from *Simulator
	eid  int32
	lat  units.Time
	sink Action
	buf  []chanEntry // power-of-two ring
	head int
	n    int
	// armed reports whether the head entry's event is resident on the heap.
	armed bool
	// buf0 is the initial ring, inline so a slab-allocated device embedding
	// the channel pays no allocation until a link holds more than chanInline
	// packets in flight. Init points buf at it, so a Channel must not be
	// copied after Init.
	buf0 [chanInline]chanEntry
}

// chanInline sizes the inline ring: 16 entries cover a 100 Gbps link with a
// bandwidth-delay product of ~16 MTU packets before the first growth.
const chanInline = 16

// chanEntry is one buffered delivery: the (at, seq) key it would have had as
// a heap event, plus the sink payload.
type chanEntry struct {
	at  units.Time
	seq uint64
	n   int64
	arg any
}

// Init binds the channel to a simulator and a delivery callback; every push
// comes from that simulator's own events. Channels are embedded by value in
// their owning device (a port, a host), so Init replaces a constructor.
func (c *Channel) Init(s *Simulator, sink Action) { c.InitFrom(s, s, 0, sink) }

// InitFrom binds the channel to the simulator s its deliveries fire on,
// pushed by events of from. With from == s it is Init. With from and s two
// LPs of one Parallel the channel is bridged: a push reserves its (at, seq)
// key on from, waits in the from→s mailbox, and the drain at the top of s's
// next window inserts it into the ring under that key, so execution order is
// exactly that of a push made on s. latency is the wire's minimum delay, the
// edge's lookahead; a bridged push less than latency ahead of from's clock
// panics. Bridging registers the edge, so it must precede the first RunUntil.
func (c *Channel) InitFrom(from, s *Simulator, latency units.Time, sink Action) {
	if s == nil || sink == nil {
		panic("sim: Channel.Init requires a simulator and a sink")
	}
	c.s = s
	c.from = s
	if from != s {
		c.eid = from.par.bridge(from, s, latency)
		c.from = from
		c.lat = latency
	}
	c.sink = sink
	c.buf = c.buf0[:]
	c.head = 0
	c.n = 0
	// A channel re-initialised after Simulator.Reset may still believe its
	// head event is resident on a heap that no longer exists; clearing armed
	// lets the first Push re-arm.
	c.armed = false
}

// Len returns the number of buffered entries. A bridged channel's entries
// still in the Parallel's mailbox are not counted until the receiving LP
// drains them.
func (c *Channel) Len() int { return c.n }

// Push buffers a delivery of (arg, n) to the sink after the given delay on
// the pushing simulator's clock. Delays must keep due times non-decreasing
// across pushes.
func (c *Channel) Push(delay units.Time, arg any, n int64) {
	c.PushAt(c.from.now+delay, arg, n)
}

// PushAt buffers a delivery of (arg, n) to the sink at the given absolute
// time, which must not precede the current tail's due time (nor the clock).
func (c *Channel) PushAt(at units.Time, arg any, n int64) {
	if c.from != c.s {
		c.from.par.send(c, at, arg, n)
		return
	}
	if c.sink == nil {
		panic("sim: Push on an uninitialised Channel")
	}
	c.insert(at, c.s.reserveSeq(), arg, n)
}

// insert appends an entry under its reserved key, arming the head event if
// the ring was empty. It runs on the receiving simulator: straight from
// PushAt, or from the mailbox drain for a bridged push.
func (c *Channel) insert(at units.Time, seq uint64, arg any, n int64) {
	if at < c.s.now {
		panic(fmt.Sprintf("sim: channel push into the past: at %v, now %v", at, c.s.now))
	}
	if c.n > 0 {
		tail := c.buf[(c.head+c.n-1)&(len(c.buf)-1)]
		if at < tail.at {
			panic(fmt.Sprintf("sim: channel push at %v behind tail due %v — the stream is not FIFO", at, tail.at))
		}
	}
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = chanEntry{at: at, seq: seq, n: n, arg: arg}
	c.n++
	if !c.armed {
		c.arm(at, seq)
	}
}

// grow doubles the ring, unrolling it to the front.
func (c *Channel) grow() {
	nbuf := make([]chanEntry, 2*len(c.buf))
	mask := len(c.buf) - 1
	for i := 0; i < c.n; i++ {
		nbuf[i] = c.buf[(c.head+i)&mask]
	}
	c.buf = nbuf
	c.head = 0
}

// arm schedules the resident head event under the entry's reserved key.
func (c *Channel) arm(at units.Time, seq uint64) {
	c.s.enqueueSeq(at, seq).act = c
	c.armed = true
}

// Run implements Action: the resident head event fired. Pop the head,
// re-arm the next entry, then deliver. Arming precedes delivery so the sink
// may push new entries reentrantly.
func (c *Channel) Run(any, int64) {
	c.armed = false
	e := c.buf[c.head]
	c.buf[c.head] = chanEntry{}
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	if c.n > 0 {
		next := &c.buf[c.head]
		c.arm(next.at, next.seq)
	}
	c.sink.Run(e.arg, e.n)
}
