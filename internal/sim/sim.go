// Package sim implements the deterministic discrete-event engine every other
// component of the simulator is driven by.
//
// Events are callbacks scheduled at absolute simulated times. Events with
// equal timestamps fire in scheduling order (FIFO tie-break), which makes
// whole-network runs reproducible bit-for-bit for a fixed seed.
//
// The engine is allocation-free on the steady-state path: heap nodes are
// recycled through a free list, the priority queue is a typed 4-ary min-heap
// (no container/heap `any` boxing) whose entries carry the (at, seq) sort key
// inline so a sift never dereferences an Event, and the Action form of
// scheduling lets hot paths pass a pre-bound callback struct instead of a
// closure. Callers hold generation-checked Timer handles, so a stale handle
// to a recycled event is inert rather than dangerous. FIFO event streams
// (link deliveries, per-port PFC processing) should go through a Channel,
// which keeps one resident heap event per stream instead of one per entry.
package sim

import (
	"fmt"
	"math"

	"dsh/units"
)

// Action is a pre-bound event callback. Scheduling an Action allocates
// nothing when the Action (and arg) are pointers to persistent structs:
// putting a pointer into an interface does not heap-allocate, unlike
// constructing a capturing closure. arg and n are handed back verbatim when
// the event fires; by convention arg carries a per-event pointer payload
// (e.g. the packet in flight) and n a small scalar (a class, an encoded
// PFC word).
type Action interface {
	Run(arg any, n int64)
}

// funcAction adapts a closure to Action, so every event fires through one
// callback form. A func value is pointer-shaped: boxing it allocates
// nothing beyond the closure itself.
type funcAction func()

func (f funcAction) Run(any, int64) { f() }

// Event is one pooled heap node. Events are owned by the simulator and are
// recycled after they fire or their cancellation is reaped, so external
// code refers to them through Timer handles, never *Event.
type Event struct {
	at        units.Time
	seq       uint64
	gen       uint32
	cancelled bool
	sim       *Simulator

	act Action
	arg any
	n   int64
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op and Active reports false. Handles stay safe
// after the event fires, is cancelled, or is recycled for a later event —
// the generation check turns any stale operation into a no-op.
type Timer struct {
	ev  *Event
	gen uint32
}

// Active reports whether the event is still scheduled to fire.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// At returns the simulated time the event fires at, or -1 if the handle is
// no longer active.
func (t Timer) At() units.Time {
	if !t.Active() {
		return -1
	}
	return t.ev.at
}

// Cancel prevents the event from firing. Cancelling an inactive handle
// (zero value, already fired, already cancelled, or recycled) is a no-op.
// A cancelled entry is dropped lazily when it reaches the top of the heap,
// or eagerly by an in-place compaction once cancelled entries outnumber
// live ones (see compact).
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled {
		t.ev.cancelled = true
		t.ev.act = nil
		t.ev.arg = nil
		t.ev.sim.noteCancel()
	}
}

// eventBlockSize is how many Events one free-list refill allocates. Block
// allocation keeps nodes dense in memory and amortizes the cold-start cost.
const eventBlockSize = 2048

// compactMinCancelled is the floor below which cancellation never triggers a
// compaction: tiny heaps reap lazily at pop for less work than a heapify.
const compactMinCancelled = 64

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now       units.Time
	heap      []heapEntry
	free      []*Event
	lastBlock []Event
	seq       uint64
	processed uint64
	heapMax   int
	cancelled int

	// seqBase tags every reserved sequence number with the simulator's
	// logical-process identity (lp << lpSeqShift, see Parallel). Comparing
	// tagged sequence numbers is exactly the lexicographic (lp, seq) order,
	// so the (at, seq) heap comparison implements the partitioned engine's
	// (at, lp, seq) total order with no extra key material. A standalone
	// simulator keeps seqBase zero and is bit-identical to the pre-LP
	// engine.
	seqBase uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{heap: make([]heapEntry, 0, 1024)}
}

// Now returns the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled (including
// cancelled entries not yet reaped, excluding entries buffered inside
// Channels beyond each channel's resident head event).
func (s *Simulator) Pending() int { return len(s.heap) }

// HeapMax returns the high-water mark of the heap size — the largest pending
// event set the run has held. It is the observable that the Channel
// conversion shrinks: with per-packet delivery events the heap scales with
// instantaneous load; with channels it scales with topology size.
func (s *Simulator) HeapMax() int { return s.heapMax }

// alloc takes a node from the free list, refilling it by a block when dry.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	block := make([]Event, eventBlockSize)
	s.lastBlock = block
	for i := range block {
		block[i].sim = s
	}
	for i := 1; i < eventBlockSize; i++ {
		s.free = append(s.free, &block[i])
	}
	return &block[0]
}

// recycle invalidates outstanding Timer handles and returns the node to the
// free list.
func (s *Simulator) recycle(ev *Event) {
	ev.gen++
	ev.act = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// reserveSeq hands out the next sequence number without scheduling
// anything, tagged with the simulator's LP identity (seqBase). Channels
// stamp entries with a reserved seq at push time, so the later head re-arm
// keeps the tie-break position the entry would have had as an ordinary
// AtAction call.
func (s *Simulator) reserveSeq() uint64 {
	q := s.seqBase | s.seq
	s.seq++
	return q
}

// enqueue builds a node for time t under a fresh sequence number.
func (s *Simulator) enqueue(t units.Time) *Event {
	return s.enqueueSeq(t, s.reserveSeq())
}

// enqueueSeq builds a node for time t under a previously reserved sequence
// number and pushes it onto the heap.
func (s *Simulator) enqueueSeq(t units.Time, seq uint64) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, s.now))
	}
	ev := s.alloc()
	ev.at = t
	ev.seq = seq
	ev.cancelled = false
	s.push(ev)
	return ev
}

// Schedule runs fn after the given non-negative delay. The closure form is
// for cold paths and tests; hot paths should use ScheduleAction, which does
// not allocate.
func (s *Simulator) Schedule(delay units.Time, fn func()) Timer {
	return s.At(s.now+delay, fn)
}

// At runs fn at the given absolute time, which must not be in the past.
func (s *Simulator) At(t units.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := s.enqueue(t)
	ev.act = funcAction(fn)
	return Timer{ev: ev, gen: ev.gen}
}

// ScheduleAction runs act.Run(arg, n) after the given non-negative delay
// without allocating (for pointer-shaped act and arg).
func (s *Simulator) ScheduleAction(delay units.Time, act Action, arg any, n int64) Timer {
	return s.AtAction(s.now+delay, act, arg, n)
}

// AtAction runs act.Run(arg, n) at the given absolute time, which must not
// be in the past.
func (s *Simulator) AtAction(t units.Time, act Action, arg any, n int64) Timer {
	if act == nil {
		panic("sim: nil event action")
	}
	ev := s.enqueue(t)
	ev.act = act
	ev.arg = arg
	ev.n = n
	return Timer{ev: ev, gen: ev.gen}
}

// atSeq schedules act at time t under a sequence number reserved earlier via
// reserveSeq. It is the Channel re-arm path; no Timer handle is returned
// because the channel owns the resident event outright.
func (s *Simulator) atSeq(t units.Time, seq uint64, act Action, arg any, n int64) {
	ev := s.enqueueSeq(t, seq)
	ev.act = act
	ev.arg = arg
	ev.n = n
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	s.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline (every event when
// deadline is negative), advancing the clock to the deadline afterwards when
// it is non-negative.
func (s *Simulator) RunUntil(deadline units.Time) {
	limit := units.Time(math.MaxInt64)
	if deadline >= 0 && deadline < limit {
		limit = deadline + 1
	}
	s.runWindow(limit)
	if deadline >= 0 && s.now < deadline {
		s.now = deadline
	}
}

// runWindow is the engine's one dispatch loop: it executes every event with
// at < limit, reaping cancelled entries on the way. It leaves the clock at
// the last event it ran; RunUntil advances it to the deadline, while a
// partitioned LP's clock must keep lower-bounding its next event so later,
// narrower windows and coordinator turns stay valid.
func (s *Simulator) runWindow(limit units.Time) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if top.ev.cancelled {
			s.pop()
			s.cancelled--
			s.recycle(top.ev)
			continue
		}
		if top.at >= limit {
			return
		}
		s.pop()
		ev := top.ev
		s.now = top.at
		act, arg, n := ev.act, ev.arg, ev.n
		s.recycle(ev)
		s.processed++
		act.Run(arg, n)
	}
}

// Reset drops every pending event and releases pooled memory beyond roughly
// one event block, so a simulator that peaked under load does not pin that
// peak for the rest of its lifetime (long RunAll sweeps hold many finished
// jobs' simulators until the GC catches up). The clock, sequence counter,
// and processed/heap-max statistics are preserved: Reset is a memory clamp
// for a finished run, not a logical restart, and post-run accounting that
// reads Now() (pause-time collection) must keep working. Outstanding Timer
// handles become inert; Channels fed by this simulator must not be pushed to
// afterwards.
func (s *Simulator) Reset() {
	for i := range s.heap {
		ev := s.heap[i].ev
		ev.gen++
		ev.act = nil
		ev.arg = nil
		s.heap[i] = heapEntry{}
	}
	s.cancelled = 0
	if cap(s.heap) > 4096 {
		s.heap = make([]heapEntry, 0, 1024)
	} else {
		s.heap = s.heap[:0]
	}
	// Rebuild the free list from the most recently allocated block only:
	// every retained node pins its whole block, so keeping an arbitrary
	// subset of a large free list would keep every block alive.
	if cap(s.free) > eventBlockSize {
		s.free = make([]*Event, 0, eventBlockSize)
	} else {
		for i := range s.free {
			s.free[i] = nil
		}
		s.free = s.free[:0]
	}
	for i := range s.lastBlock {
		s.free = append(s.free, &s.lastBlock[i])
	}
}

// The priority queue is a 4-ary min-heap ordered by (at, seq): shallower
// than a binary heap (fewer cache-missing levels per sift) and wide enough
// that four children share cache lines. Entries carry the sort key inline,
// so a sift compares against dense heap memory and never touches the Event
// nodes it is moving.

// heapEntry is one heap slot: the (at, seq) sort key plus the event it keys.
type heapEntry struct {
	at  units.Time
	seq uint64
	ev  *Event
}

// less orders entries by time, FIFO within a timestamp.
func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up.
func (s *Simulator) push(ev *Event) {
	s.heap = append(s.heap, heapEntry{})
	n := len(s.heap)
	if n > s.heapMax {
		s.heapMax = n
	}
	s.siftUp(n-1, heapEntry{at: ev.at, seq: ev.seq, ev: ev})
}

// pop removes and returns the minimum entry.
func (s *Simulator) pop() heapEntry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = heapEntry{}
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// noteCancel counts a cancellation and compacts the heap once cancelled
// entries outnumber live ones, so mass cancellation (a sweep tearing down
// timers) cannot leave the heap bloated until each entry drifts to the top.
func (s *Simulator) noteCancel() {
	s.cancelled++
	if s.cancelled >= compactMinCancelled && s.cancelled*2 > len(s.heap) {
		s.compact()
	}
}

// compact removes every cancelled entry in place and re-heapifies.
func (s *Simulator) compact() {
	h := s.heap
	w := 0
	for _, e := range h {
		if e.ev.cancelled {
			s.recycle(e.ev)
			continue
		}
		h[w] = e
		w++
	}
	for i := w; i < len(h); i++ {
		h[i] = heapEntry{}
	}
	s.heap = h[:w]
	for i := (w - 2) >> 2; i >= 0; i-- {
		s.siftDown(i, s.heap[i])
	}
	s.cancelled = 0
}

// siftUp places entry e at index i, moving it toward the root while it beats
// its parent.
func (s *Simulator) siftUp(i int, e heapEntry) {
	h := s.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown places entry e at index i, moving it toward the leaves while some
// child beats it.
func (s *Simulator) siftDown(i int, e heapEntry) {
	h := s.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
