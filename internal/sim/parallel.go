package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"dsh/units"
)

// Conservative LP-partitioned execution.
//
// A Parallel groups one coordinator Simulator with K logical-process (LP)
// Simulators and runs them under an epoch-barrier conservative schedule.
// K may be zero: with no LPs every device runs on the coordinator and
// RunUntil is the coordinator's own RunUntil — the classic single-heap
// engine, not a one-LP partition (whose coordinator events would sort
// before device events at equal timestamps).
// Every epoch, each LP d executes its events in parallel up to its own
// window limit
//
//	limit[d] = min over incoming edges (src→d) of eot(src) + latency[src][d]
//
// where eot(src) — the earliest output time of src — is the timestamp of
// the earliest event src could possibly execute this epoch (its heap head,
// or an undrained message addressed to it, whichever is earlier), and
// latency is the per-LP-pair minimum link latency. An idle LP (no pending
// events, no pending messages) cannot send anything this epoch and
// therefore does not constrain its neighbours at all. This pairwise
// conditional lookahead replaces the PR 5 design's single global window
// (min event time + global min latency across ALL links), so epochs grow
// to whatever the topology actually permits: an LP with no incoming edges
// runs straight to the next coordinator event, and a far-ahead or idle
// neighbour stops throttling everyone else.
//
// An LP reaches another LP only through a bridged Channel (see
// Channel.InitFrom): the channel lives on the receiving LP, and its pushes
// travel through single-writer per-edge mailboxes. The mailboxes are
// double-buffered: senders append to the current buffer while drains read
// the previous one, which lets the drain fuse into the same barrier phase as
// event execution — one barrier round per epoch, not two. Messages are
// flushed into their channels once per epoch, in batch, never handed over
// individually.
//
// Determinism is by construction, not by locking discipline. The global
// event order is (at, lp, seq), realized as (at, seqBase|seq) on the
// existing heap comparison: the coordinator owns seqBase 0 and each LP i
// owns seqBase (i+1)<<lpSeqShift, so tagged sequence numbers compare exactly
// like the lexicographic pair. Cross-LP messages carry the (at, seq) key
// reserved from the *sending* LP at push time, and the drain inserts each
// into its channel's ring under that key. One channel's messages come from
// one edge in push order, so every ring stays FIFO in (at, seq) and its
// resident head event is the minimum it would have had as one heap event
// per message; the keys are globally unique and the window rule guarantees
// they land at or after the destination's epoch limit, so the order in which
// edges drain is immaterial. Consequently the serial fallback
// (one worker) and any parallel worker count execute the identical event
// sequence per LP, bit for bit.
//
// Coordinator events — flow starts, samplers, deadlock-detector ticks —
// run single-threaded between epochs with every LP quiescent and advanced
// to the event time, and run *before* any LP event at the same timestamp
// (coordinator tag 0 sorts first). They may read any LP's state and
// schedule onto any LP at arbitrary non-negative delays; only LP→LP
// traffic needs the lookahead discipline.
//
// Window safety: during an epoch, src executes only events with timestamps
// ≥ eot(src) (its heap holds nothing earlier, and messages drained into it
// this epoch are ≥ eot(src) by definition). Every message it emits on edge
// src→d therefore arrives at ≥ eot(src) + latency[src][d] ≥ limit[d], so
// the destination — which runs strictly below limit[d] — can never miss a
// message it should have seen. Progress: the LP holding the globally
// minimal pending time tmin always runs, because every incoming-edge bound
// is ≥ tmin + latency > tmin (latencies are positive).

// lpSeqShift splits the 64-bit sequence space into (lp, local seq). 2^48
// local sequence numbers per LP is ~5 orders of magnitude above the largest
// run's event count; 2^15 LPs is two above the largest topology.
const lpSeqShift = 48

// noMsg is the per-edge pending-minimum sentinel for an empty mailbox.
const noMsg = units.Time(math.MaxInt64)

// remoteMsg is one bridged channel push in flight: the full heap key
// reserved on the sending LP plus the entry payload, inserted into the
// destination channel's ring at the epoch flush.
type remoteMsg struct {
	at  units.Time
	seq uint64
	ch  *Channel
	arg any
	n   int64
}

// send is a bridged channel's push, run by the sending LP: it reserves the
// entry's key there and appends it to the edge's current mailbox. Exactly
// one goroutine (the one running the source LP's window) appends to an edge
// at a time, which the epoch scheduler guarantees. A push less than the
// wire latency ahead would break the window safety argument, so it panics.
func (p *Parallel) send(c *Channel, at units.Time, arg any, n int64) {
	s := c.from
	if at-s.now < c.lat {
		panic(fmt.Sprintf("sim: bridged channel push %v ahead, below the wire latency %v", at-s.now, c.lat))
	}
	box := &p.curBoxes[c.eid]
	*box = append(*box, remoteMsg{at: at, seq: s.reserveSeq(), ch: c, arg: arg, n: n})
	if at < p.curMin[c.eid] {
		p.curMin[c.eid] = at
	}
}

// inEdge is one incoming cross-LP edge as seen from its destination: the
// source LP, the pair's mailbox index, and the pair's minimum latency (the
// entry of the pairwise lookahead matrix for this directed pair).
type inEdge struct {
	src int32
	eid int32
	lat units.Time
}

// flatEdge is one directed LP pair with its minimum latency: an entry of the
// relaxation list the per-epoch earliest-output-time fixed point iterates
// over, indexed by the pair's edge id.
type flatEdge struct {
	src, dst int32
	lat      units.Time
}

// joinFlag is one participant's arrival word in the tree barrier, padded to
// its own cache line so spinning parents do not bounce siblings' lines.
type joinFlag struct {
	v atomic.Uint64
	_ [56]byte
}

// Parallel is the epoch-barrier scheduler. Build it before the run: create
// LPs with NewLP, bridge channels between them with Channel.InitFrom, then
// call RunUntil (repeatedly, with non-decreasing deadlines, to observe
// intermediate state). The topology is frozen at the first RunUntil.
type Parallel struct {
	coord   *Simulator
	lps     []*Simulator
	workers int

	// Double-buffered per-edge mailboxes, indexed by edge id (one edge per
	// directed LP pair that ever bridged a channel). Senders append to
	// curBoxes and maintain curMin (the earliest pending timestamp per
	// edge); the epoch flip swaps cur and prev, and the fused phase drains
	// prevBoxes while new sends land in the (empty) curBoxes. Exactly one
	// goroutine writes any given box during a phase: the source LP's runner
	// appends to cur, the destination LP's claimer empties prev.
	curBoxes, prevBoxes [][]remoteMsg
	curMin, prevMin     []units.Time

	// edges is the pairwise minimum-latency matrix as a flat relaxation list
	// for the eot fixed point, in registration order, and pairs maps a
	// directed (src, dst) pair to its edge id while channels are bridged.
	// in[d] lists d's incoming edges, built from edges at finalize.
	in    [][]inEdge
	edges []flatEdge
	pairs map[int64]int32
	final bool

	// order is the LP claim order for a phase, heaviest first so the
	// long-pole LP starts before the stragglers. It is seeded from the
	// builder-provided weight hints and periodically resorted from measured
	// per-LP processed-event deltas (see rebalanceMaybe); it affects only
	// wall-clock, never results, because LPs share no state inside a phase.
	order    []int32
	weights  []uint64
	lastProc []uint64
	epochs   uint64

	// limits[d] is LP d's window for the published epoch; eff and eot are
	// scratch for the per-LP earliest event times and their shortest-path
	// fixed point. All are written by the coordinator goroutine before the
	// phase publish (phaseSeq is the release/acquire edge).
	limits []units.Time
	eff    []units.Time
	eot    []units.Time

	// Phase protocol. The coordinator publishes an epoch by bumping
	// phaseSeq (workers spin on it, yielding periodically so a GOMAXPROCS=1
	// run still makes progress), every participant claims LPs off the
	// shared cursor, and completion is a sense-reversing tree join: each
	// participant waits for its two children in a static binary tree to
	// post the epoch number in their padded flags, then posts its own. The
	// monotone epoch number doubles as the sense word (no A/B flip needed,
	// and no ABA hazard), and the root — the coordinator — returning from
	// the join IS the barrier: its next phaseSeq bump is the release.
	// stopFlag, checked after every sequence change, ends the workers when
	// RunUntil returns.
	phaseSeq atomic.Uint64
	flags    []joinFlag
	stopFlag atomic.Bool
	cursor   atomic.Int64
	nrun     int

	// forceParallel disables the single-P serial fast path in RunUntil so
	// tests can exercise the barrier protocol on a GOMAXPROCS=1 box.
	forceParallel bool
}

// NewParallel returns a scheduler whose coordinator is coord (seqBase 0 —
// its events sort before any LP event at the same time). workers is the
// number of goroutines that execute LP phases; values below 1 mean 1, and
// the count is capped at the LP count per run. The worker count never
// affects results.
func NewParallel(coord *Simulator, workers int) *Parallel {
	if coord.seqBase != 0 {
		panic("sim: coordinator must be an untagged Simulator")
	}
	return &Parallel{coord: coord, workers: workers}
}

// NewLP creates and registers the next logical process, returning its
// simulator and index. LP event-sequence tags start at 1, so the
// coordinator sorts first at equal timestamps.
func (p *Parallel) NewLP() (*Simulator, int) {
	if p.final {
		panic("sim: NewLP after the first RunUntil")
	}
	s := New()
	s.seqBase = uint64(len(p.lps)+1) << lpSeqShift
	s.par = p
	p.lps = append(p.lps, s)
	return s, len(p.lps) - 1
}

// lpIndex returns an LP simulator's index, read off its sequence tag.
func (s *Simulator) lpIndex() int32 { return int32(s.seqBase>>lpSeqShift) - 1 }

// bridge registers a channel from LP src to LP dst, with the wire's
// propagation delay as its latency contribution to the pair's lookahead, and
// returns the pair's edge id. Channels on the same directed pair share one
// edge, whose latency is the smallest registered.
func (p *Parallel) bridge(src, dst *Simulator, latency units.Time) int32 {
	if p == nil || dst.par != p {
		panic("sim: a channel between simulators must join two LPs of one Parallel")
	}
	if p.final {
		panic("sim: channel bridged after the first RunUntil")
	}
	if latency <= 0 {
		panic("sim: cross-LP channel needs positive latency for lookahead")
	}
	e := flatEdge{src: src.lpIndex(), dst: dst.lpIndex(), lat: latency}
	if p.pairs == nil {
		p.pairs = make(map[int64]int32)
	}
	key := int64(e.src)<<32 | int64(e.dst)
	eid, ok := p.pairs[key]
	if !ok {
		eid = int32(len(p.edges))
		p.pairs[key] = eid
		p.edges = append(p.edges, e)
	} else if latency < p.edges[eid].lat {
		p.edges[eid].lat = latency
	}
	return eid
}

// AddLPWeight biases the initial heaviest-first claim order with a static
// workload hint (e.g. device or port counts) before the first RunUntil.
// Measured processed-event counts take over after the first rebalance
// interval; the hint only matters for the opening epochs. Weights never
// affect results, only wall-clock.
func (p *Parallel) AddLPWeight(lp int, w uint64) {
	if p.final {
		panic("sim: AddLPWeight after the first RunUntil")
	}
	if len(p.lps) == 0 {
		return
	}
	for len(p.weights) < len(p.lps) {
		p.weights = append(p.weights, 0)
	}
	p.weights[lp] += w
}

// LPCount returns the number of registered LPs.
func (p *Parallel) LPCount() int { return len(p.lps) }

// Processed returns the total events executed across the coordinator and
// every LP.
func (p *Parallel) Processed() uint64 {
	n := p.coord.Processed()
	for _, s := range p.lps {
		n += s.Processed()
	}
	return n
}

// Epochs returns how many barrier epochs the scheduler has executed. It is
// the denominator of the partition tax: fewer epochs per simulated second
// means wider windows and less barrier/flush overhead per event.
func (p *Parallel) Epochs() uint64 { return p.epochs }

// LPBalance returns the busiest LP's processed-event count divided by the
// per-LP mean: 1.0 is a perfectly balanced partition, K is one LP doing all
// the work. Returns 0 before any event has been processed.
func (p *Parallel) LPBalance() float64 {
	var total, max uint64
	for _, s := range p.lps {
		n := s.Processed()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 || len(p.lps) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(p.lps))
	return float64(max) / mean
}

// HeapMax returns the largest single-simulator heap high-water mark across
// the coordinator and every LP (heaps are per-LP, so the per-heap peak is
// the comparable figure).
func (p *Parallel) HeapMax() int {
	m := p.coord.HeapMax()
	for _, s := range p.lps {
		if h := s.HeapMax(); h > m {
			m = h
		}
	}
	return m
}

// Reset clamps pooled memory on the coordinator and every LP (see
// Simulator.Reset). Mailboxes may still hold messages timestamped beyond
// the last RunUntil deadline; they are preserved for a later RunUntil.
func (p *Parallel) Reset() {
	p.coord.Reset()
	for _, s := range p.lps {
		s.Reset()
	}
}

// finalize freezes the topology: the per-destination in-edge rows, the
// double-buffered mailbox storage, and the initial claim order are laid out
// once, from the bridged edges and weight hints.
func (p *Parallel) finalize() {
	if p.final {
		return
	}
	p.final = true
	p.pairs = nil
	k := len(p.lps)
	p.in = make([][]inEdge, k)
	for eid, e := range p.edges {
		p.in[e.dst] = append(p.in[e.dst], inEdge{src: e.src, eid: int32(eid), lat: e.lat})
	}
	ne := len(p.edges)
	p.curBoxes = make([][]remoteMsg, ne)
	p.prevBoxes = make([][]remoteMsg, ne)
	p.curMin = make([]units.Time, ne)
	p.prevMin = make([]units.Time, ne)
	for i := 0; i < ne; i++ {
		p.curMin[i] = noMsg
		p.prevMin[i] = noMsg
	}
	p.limits = make([]units.Time, k)
	p.eff = make([]units.Time, k)
	p.eot = make([]units.Time, k)
	p.lastProc = make([]uint64, k)
	p.order = make([]int32, k)
	for i := range p.order {
		p.order[i] = int32(i)
	}
	if p.weights != nil {
		for len(p.weights) < k {
			p.weights = append(p.weights, 0)
		}
		w := p.weights
		sort.SliceStable(p.order, func(i, j int) bool { return w[p.order[i]] > w[p.order[j]] })
	}
}

// RunUntil executes all coordinator and LP events with timestamps <=
// deadline and then advances every clock to the deadline, mirroring
// Simulator.RunUntil semantics. With no LPs it is exactly the coordinator's
// RunUntil (the classic engine); with LPs the deadline must be
// non-negative.
func (p *Parallel) RunUntil(deadline units.Time) {
	if len(p.lps) == 0 {
		p.coord.RunUntil(deadline)
		return
	}
	if deadline < 0 {
		panic("sim: Parallel.RunUntil needs a non-negative deadline")
	}
	p.finalize()
	w := p.workers
	if w > len(p.lps) {
		w = len(p.lps)
	}
	if w < 1 {
		w = 1
	}
	if w > 1 && !p.forceParallel && runtime.GOMAXPROCS(0) == 1 {
		// One P time-slices the workers through the spin barrier's Gosched,
		// so the parallel machinery is pure overhead. Serial claiming does
		// the identical work — results never depend on who runs an LP — at
		// the serial engine's cost.
		w = 1
	}
	p.nrun = w
	if w > 1 {
		if len(p.flags) < w {
			p.flags = make([]joinFlag, w)
		}
		p.stopFlag.Store(false)
		base := p.phaseSeq.Load()
		for i := 1; i < w; i++ {
			go p.workerLoop(i, base)
		}
	}

	for {
		tg := p.coord.peekTime()
		// Effective next time per LP: the heap head or the earliest
		// undrained message addressed to it, whichever is earlier. This is
		// both the coordinator-turn bound and each LP's earliest output
		// time for the window computation below.
		tlp := units.Time(-1)
		for i, s := range p.lps {
			t := s.peekTime()
			for _, e := range p.in[i] {
				if m := p.curMin[e.eid]; m != noMsg && (t < 0 || m < t) {
					t = m
				}
			}
			p.eff[i] = t
			if t >= 0 && (tlp < 0 || t < tlp) {
				tlp = t
			}
		}
		next := tg
		if next < 0 || (tlp >= 0 && tlp < next) {
			next = tlp
		}
		if next < 0 || next > deadline {
			break
		}
		if tg >= 0 && (tlp < 0 || tg <= tlp) {
			// Coordinator turn: run every coordinator event up to tg with
			// all LPs quiescent and their clocks advanced to tg, so a flow
			// start or sampler sees each LP at the barrier time. All LP
			// events below tg have already executed (tg <= tlp), and every
			// undrained message is timestamped >= tlp >= tg, so leaving
			// mailboxes pending changes nothing the coordinator can see.
			for _, s := range p.lps {
				s.advanceTo(tg)
			}
			p.coord.RunUntil(tg)
			continue
		}
		// Epoch: flip the mailbox buffers (O(1) slice-header swaps — the
		// prev side is empty, every box was flushed last epoch), compute
		// each LP's pairwise-lookahead window, and run the single fused
		// drain+execute phase.
		p.curBoxes, p.prevBoxes = p.prevBoxes, p.curBoxes
		p.curMin, p.prevMin = p.prevMin, p.curMin
		// Earliest output times are the fixed point of relaxing each LP's
		// earliest event time along the latency matrix:
		//
		//	eot(i) = min(eff(i), min over edges j→i of eot(j) + lat(j,i))
		//
		// The single-step bound (eff alone) is unsound over multiple
		// epochs: an LP idle *now* can be woken by a neighbour's output and
		// reply earlier than the naive bound promises, so causality must be
		// propagated transitively (Lubachevsky's bounded-lag argument —
		// each LP is effectively bounded by its shortest active cycle, not
		// by the single narrowest link). Positive latencies make this a
		// shortest-path relaxation that converges in at most diameter+1
		// passes; real topologies (stars, leaf–spine, fat-tree) take 2–5.
		for i := range p.lps {
			if t := p.eff[i]; t >= 0 {
				p.eot[i] = t
			} else {
				p.eot[i] = noMsg
			}
		}
		for changed := true; changed; {
			changed = false
			for _, e := range p.edges {
				if t := p.eot[e.src]; t != noMsg {
					if a := t + e.lat; a < p.eot[e.dst] {
						p.eot[e.dst] = a
						changed = true
					}
				}
			}
		}
		for d := range p.lps {
			lim := deadline + 1
			if tg >= 0 && tg < lim {
				lim = tg
			}
			for _, e := range p.in[d] {
				if t := p.eot[e.src]; t != noMsg {
					if a := t + e.lat; a < lim {
						lim = a
					}
				}
			}
			p.limits[d] = lim
		}
		p.rebalanceMaybe()
		p.runEpoch()
	}

	for _, s := range p.lps {
		s.advanceTo(deadline)
	}
	p.coord.RunUntil(deadline)

	if w > 1 {
		// Wake every spinning worker with the stop flag up, then join
		// through the arrival tree: a later RunUntil clears stopFlag, and a
		// straggler from this run that observed the cleared flag would
		// rejoin the new barrier as an extra participant.
		p.stopFlag.Store(true)
		e := p.phaseSeq.Add(1)
		p.join(0, e)
	}
}

// runEpoch publishes one fused drain+execute phase to every worker (the
// caller participates) and joins the completion tree, which orders this
// epoch's mailbox writes before the next epoch's flip and drains.
func (p *Parallel) runEpoch() {
	p.epochs++
	p.cursor.Store(0)
	if p.nrun > 1 {
		e := p.phaseSeq.Add(1) // publishes limits/order/cursor to spinning workers
		p.doPhase()
		p.join(0, e)
	} else {
		p.doPhaseSerial()
	}
}

// workerLoop spins for published epochs until the run raises stopFlag. id
// is the participant's slot in the join tree; seen is the phase sequence at
// spawn — every later value is a fresh epoch (or the stop signal).
func (p *Parallel) workerLoop(id int, seen uint64) {
	for {
		seq := p.phaseSeq.Load()
		for seq == seen {
			for i := 0; i < 64 && seq == seen; i++ {
				seq = p.phaseSeq.Load()
			}
			if seq == seen {
				runtime.Gosched()
			}
		}
		seen = seq
		if p.stopFlag.Load() {
			p.join(id, seq) // exit acknowledgement for the RunUntil join
			return
		}
		p.doPhase()
		p.join(id, seq)
	}
}

// join is the tree-barrier arrival for participant id at epoch e: wait for
// both children (slots 2id+1, 2id+2) to post e, then post e yourself. The
// root (the coordinator, id 0) returning means every participant finished
// the epoch; its next phaseSeq bump is the release.
func (p *Parallel) join(id int, e uint64) {
	for c := 2*id + 1; c <= 2*id+2 && c < p.nrun; c++ {
		f := &p.flags[c].v
		for f.Load() < e {
			for i := 0; i < 64 && f.Load() < e; i++ {
			}
			if f.Load() < e {
				runtime.Gosched()
			}
		}
	}
	if id != 0 {
		p.flags[id].v.Store(e)
	}
}

// doPhase claims LPs off the shared cursor until none remain, flushing each
// claimed LP's incoming mailboxes and then running its window. Claim order
// follows p.order; which worker runs which LP is immaterial to results.
func (p *Parallel) doPhase() {
	k := int64(len(p.lps))
	for {
		i := p.cursor.Add(1) - 1
		if i >= k {
			return
		}
		li := int(p.order[i])
		p.drain(li, p.prevBoxes, p.prevMin)
		p.lps[li].runWindow(p.limits[li])
	}
}

// doPhaseSerial is the one-participant fast path: same work as doPhase
// without the shared-cursor atomics.
func (p *Parallel) doPhaseSerial() {
	for _, li := range p.order {
		p.drain(int(li), p.prevBoxes, p.prevMin)
		p.lps[li].runWindow(p.limits[li])
	}
}

// drain flushes one side of the mailboxes addressed to LP dst into their
// channels: the epoch phase drains the previous side, the total-order oracle
// both. Only the goroutine that claimed dst touches dst's channels or these
// boxes, and edge order is immaterial: the reserved (at, seq) keys alone
// decide execution order.
func (p *Parallel) drain(dst int, boxes [][]remoteMsg, mins []units.Time) {
	for _, e := range p.in[dst] {
		box := &boxes[e.eid]
		msgs := *box
		if len(msgs) == 0 {
			continue
		}
		for i := range msgs {
			m := &msgs[i]
			m.ch.insert(m.at, m.seq, m.arg, m.n)
			*m = remoteMsg{}
		}
		*box = msgs[:0]
		mins[e.eid] = noMsg
	}
}

// rebalanceMaybe periodically reorders LP claiming heaviest-first by the
// events each LP processed since the previous rebalance — measured recent
// load, which tracks workload shifts (an arriving burst, a draining
// hotspot) that lifetime totals smear out. Deterministic input,
// deterministic order; and even a different order would change only
// wall-clock, never results.
func (p *Parallel) rebalanceMaybe() {
	if p.epochs&63 != 0 {
		return
	}
	lps := p.lps
	last := p.lastProc
	sort.SliceStable(p.order, func(i, j int) bool {
		a, b := p.order[i], p.order[j]
		return lps[a].processed-last[a] > lps[b].processed-last[b]
	})
	for i, s := range lps {
		last[i] = s.processed
	}
}

// runUntilTotalOrder executes the partitioned network one event at a time
// in the global (at, lp, seq) order, draining mailboxes eagerly after every
// event. It is the reference implementation the epoch scheduler is
// property-tested against: same total order, none of the windowing.
func (p *Parallel) runUntilTotalOrder(deadline units.Time) {
	if deadline < 0 {
		panic("sim: runUntilTotalOrder needs a non-negative deadline")
	}
	p.finalize()
	for {
		// Drain eagerly, the previous side first: it holds the older pushes.
		for d := range p.lps {
			p.drain(d, p.prevBoxes, p.prevMin)
			p.drain(d, p.curBoxes, p.curMin)
		}
		var best *Simulator
		bt := units.Time(-1)
		var bseq uint64
		coord := false
		consider := func(s *Simulator, isCoord bool) {
			t := s.peekTime()
			if t < 0 {
				return
			}
			seq := s.heap[0].seq
			if bt < 0 || t < bt || (t == bt && seq < bseq) {
				best, bt, bseq, coord = s, t, seq, isCoord
			}
		}
		consider(p.coord, true)
		for _, s := range p.lps {
			consider(s, false)
		}
		if best == nil || bt > deadline {
			break
		}
		if coord {
			// Match the epoch scheduler's coordinator-turn semantics: every
			// LP clock reads the barrier time during a coordinator event.
			for _, s := range p.lps {
				s.advanceTo(bt)
			}
		}
		best.runOne()
	}
	for _, s := range p.lps {
		s.advanceTo(deadline)
	}
	p.coord.advanceTo(deadline)
}

// peekTime returns the due time of the earliest live event, reaping
// cancelled heads on the way, or -1 when no live event is pending.
func (s *Simulator) peekTime() units.Time {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if top.ev.cancelled {
			s.pop()
			s.cancelled--
			s.recycle(top.ev)
			continue
		}
		return top.at
	}
	return -1
}

// runOne executes exactly the earliest live event. The caller has already
// established via peekTime that one exists.
func (s *Simulator) runOne() {
	top := s.pop()
	ev := top.ev
	s.now = top.at
	act, arg, n := ev.act, ev.arg, ev.n
	s.recycle(ev)
	s.processed++
	act.Run(arg, n)
}

// advanceTo moves the clock forward to t without executing anything; a
// no-op when the clock is already past t.
func (s *Simulator) advanceTo(t units.Time) {
	if t > s.now {
		s.now = t
	}
}
