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
type Channel struct {
	s    *Simulator
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

// Init binds the channel to a simulator and a delivery callback. Channels
// are embedded by value in their owning device (a port, a host), so Init
// replaces a constructor.
func (c *Channel) Init(s *Simulator, sink Action) {
	if s == nil || sink == nil {
		panic("sim: Channel.Init requires a simulator and a sink")
	}
	c.s = s
	c.sink = sink
	c.buf = c.buf0[:]
	c.head = 0
	c.n = 0
	// A channel re-initialised after Simulator.Reset may still believe its
	// head event is resident on a heap that no longer exists; clearing armed
	// lets the first Push re-arm.
	c.armed = false
}

// Len returns the number of buffered entries.
func (c *Channel) Len() int { return c.n }

// Push buffers a delivery of (arg, n) to the sink after the given delay.
// Delays must keep due times non-decreasing across pushes.
func (c *Channel) Push(delay units.Time, arg any, n int64) {
	c.PushAt(c.s.now+delay, arg, n)
}

// PushAt buffers a delivery of (arg, n) to the sink at the given absolute
// time, which must not precede the current tail's due time (nor the clock).
func (c *Channel) PushAt(at units.Time, arg any, n int64) {
	if c.sink == nil {
		panic("sim: Push on an uninitialised Channel")
	}
	if at < c.s.now {
		panic(fmt.Sprintf("sim: channel push into the past: at %v, now %v", at, c.s.now))
	}
	if c.n > 0 {
		tail := c.buf[(c.head+c.n-1)&(len(c.buf)-1)]
		if at < tail.at {
			panic(fmt.Sprintf("sim: channel push at %v behind tail due %v — the stream is not FIFO", at, tail.at))
		}
	}
	seq := c.s.reserveSeq()
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
	c.s.atSeq(at, seq, c, nil, 0)
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
