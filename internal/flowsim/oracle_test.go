package flowsim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dsh/units"
)

// The exactness oracle: the engine's waterfill visits only unfrozen flows
// and live links and caches each link's fair share, a restructuring that
// must not change a single float. refEngine keeps run, recompute and
// waterfill in their original form, where every round rescans all active
// flows and all links and divides remCap/nUn afresh, and shares the rest
// of the engine (admission, queue/pause model, and the completion heap,
// which TestOracleHeapExact pins on its own), so any divergence is the
// round structure's fault.
type refEngine struct{ *engine }

func refRun(cfg Config, specs []Spec, horizon units.Time) (Result, *engine) {
	e := refEngine{newEngine(cfg, specs)}
	e.run(horizon)
	return e.result(horizon), e.engine
}

// TestOracleWaterfillExact runs random graphs and schedules through both
// engines and requires the whole Result, and every piece of engine state
// the two share, to be identical.
func TestOracleWaterfillExact(t *testing.T) {
	cases := 600
	if testing.Short() {
		cases = 150
	}
	rng := rand.New(rand.NewSource(1))
	var paused, unfinished, multiRound int
	for c := 0; c < cases; c++ {
		cfg, specs, horizon := oracleCase(rng)
		got := Run(cfg, specs, horizon)
		want, ref := refRun(cfg, specs, horizon)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Result diverged from the reference engine\n got %+v\nwant %+v", c, got, want)
		}
		e := newEngine(cfg, specs)
		e.run(horizon)
		if !sameState(e, ref) {
			t.Fatalf("case %d: engine state diverged from the reference engine", c)
		}
		if got.PauseEvents > 0 {
			paused++
		}
		if got.Unfinished > 0 {
			unfinished++
		}
		if distinctRates(e) > 1 {
			multiRound++
		}
	}
	// The generator must actually reach the regimes the oracle is for.
	if paused < cases/10 || unfinished < cases/10 || multiRound < cases/4 {
		t.Fatalf("weak coverage over %d cases: %d paused, %d cut by the horizon, %d multi-round",
			cases, paused, unfinished, multiRound)
	}
}

// sameState compares every engine field the reference also maintains; the
// cached shares and the round lists are scratch only the new engine keeps.
func sameState(a, b *engine) bool {
	ca, cb := *a, *b
	for _, c := range []*engine{&ca, &cb} {
		c.unfrozen, c.liveLinks, c.livePos, c.ratio = nil, nil, nil, nil
	}
	return reflect.DeepEqual(ca, cb)
}

// TestOracleHeapExact drives the completion heap and the reference
// swap-based sifts with one random push/pop sequence, heavy in equal
// instants, and requires the same array after every operation: the heap
// decides which of several equal-instant finishes pops first.
func TestOracleHeapExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := &engine{flows: make([]flowState, 1)}
	var ref []heapEntry
	for op := 0; op < 20000; op++ {
		if len(ref) > 0 && rng.Intn(9) < 4 {
			e.heapPop()
			ref = refHeapPop(ref)
		} else {
			f := &e.flows[0]
			f.upTo, f.rem, f.rate, f.gen = float64(rng.Intn(8)), float64(1+rng.Intn(4)), 1, int32(op)
			e.pushFinish(0)
			ref = refPushFinish(ref, heapEntry{at: f.upTo + f.rem/f.rate, gen: f.gen})
		}
		if !slices.Equal(e.heap, ref) {
			t.Fatalf("op %d: heap %v, reference %v", op, e.heap, ref)
		}
	}
}

// refPushFinish and refHeapPop are the swap-based sifts the completion
// heap's hole-based ones must match entry for entry.
func refPushFinish(heap []heapEntry, x heapEntry) []heapEntry {
	heap = append(heap, x)
	i := len(heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if heap[p].at <= heap[i].at {
			break
		}
		heap[p], heap[i] = heap[i], heap[p]
		i = p
	}
	return heap
}

func refHeapPop(heap []heapEntry) []heapEntry {
	n := len(heap) - 1
	heap[0] = heap[n]
	heap = heap[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && heap[c+1].at < heap[c].at {
			c++
		}
		if heap[i].at <= heap[c].at {
			break
		}
		heap[i], heap[c] = heap[c], heap[i]
		i = c
	}
	return heap
}

// distinctRates counts the distinct nonzero rates flows last held, a proxy
// for a waterfill that needed several rounds.
func distinctRates(e *engine) int {
	seen := map[float64]bool{}
	for i := range e.flows {
		if r := e.flows[i].prevRate; r > 0 {
			seen[r] = true
		}
	}
	return len(seen)
}

// oracleCase draws one random graph and schedule. Capacities come from a
// two-value set (so many links tie exactly), a third of the flows arrive as
// equal-size incast bursts onto one egress port (near-tie bottlenecks),
// shared buffers are small enough to trip PFC onto ingress links, and a
// third of the cases cut the run at a horizon.
func oracleCase(rng *rand.Rand) (Config, []Spec, units.Time) {
	caps := []units.BitRate{100 * units.Gbps, 25 * units.Gbps}
	nSw := 1 + rng.Intn(3)
	nHost := 4 + rng.Intn(12)
	cfg := Config{
		MTU:        1500,
		Header:     48,
		ConvWindow: units.Time(rng.Intn(16)) * units.Microsecond,
		Quantum:    units.Time(1+rng.Intn(8)) * units.Microsecond,
	}
	if rng.Intn(2) == 0 {
		cfg.CCDrain = 0.05
		cfg.ECNClamp = 250 * units.KB
	}
	for s := 0; s < nSw; s++ {
		cfg.Switches = append(cfg.Switches, Switch{
			Shared: units.ByteSize(200+rng.Intn(3000)) * units.KB,
			Alpha:  []float64{1.0 / 16, 1.0 / 4, 1}[rng.Intn(3)],
		})
	}
	// Host NIC links first, then switch egress links.
	for h := 0; h < nHost; h++ {
		cfg.Links = append(cfg.Links, Link{Cap: caps[rng.Intn(2)], Prop: units.Microsecond, Switch: -1})
	}
	nEgress := 2 + rng.Intn(10)
	for i := 0; i < nEgress; i++ {
		var delta units.ByteSize
		if rng.Intn(2) == 0 {
			delta = units.ByteSize(rng.Intn(60)) * units.KB
		}
		cfg.Links = append(cfg.Links, Link{Cap: caps[rng.Intn(2)], Prop: units.Microsecond,
			Switch: rng.Intn(nSw), XoffDelta: delta})
	}
	// Ingress: random feeding links per switch (sometimes none, so the
	// tripped port pauses itself).
	for s := 0; s < nSw; s++ {
		if rng.Intn(4) == 0 {
			continue
		}
		var in []int32
		for li := range cfg.Links {
			if rng.Intn(3) == 0 {
				in = append(in, int32(li))
			}
		}
		for li := range cfg.Links {
			if cfg.Links[li].Switch == s {
				cfg.Links[li].Ingress = in
			}
		}
	}

	randPath := func() []int32 {
		n := 1 + rng.Intn(4)
		perm := rng.Perm(len(cfg.Links))[:n]
		p := make([]int32, n)
		for i, li := range perm {
			p[i] = int32(li)
		}
		return p
	}
	sizes := []units.ByteSize{1 * units.KB, 64 * units.KB, 200 * units.KB, 2 * units.MB}
	var specs []Spec
	nFlows := 1 + rng.Intn(60)
	for len(specs) < nFlows {
		start := units.Time(rng.Intn(200)) * units.Microsecond
		if rng.Intn(3) == 0 {
			// Equal-size incast burst: fan-in senders into one egress port,
			// all starting at the same instant.
			victim := int32(nHost + rng.Intn(nEgress))
			fan := 2 + rng.Intn(nHost-1)
			size := sizes[rng.Intn(len(sizes))]
			for _, h := range rng.Perm(nHost)[:fan] {
				specs = append(specs, Spec{ID: len(specs), Size: size, Start: start,
					Path: []int32{int32(h), victim}})
			}
			continue
		}
		specs = append(specs, Spec{ID: len(specs), Size: sizes[rng.Intn(len(sizes))], Start: start,
			Path: randPath()})
	}
	var horizon units.Time
	if rng.Intn(3) == 0 {
		horizon = units.Time(50+rng.Intn(300)) * units.Microsecond
	}
	return cfg, specs, horizon
}

// run is the reference event loop.
func (e refEngine) run(horizon units.Time) {
	// Arrival order: by start time, flow index as the tiebreak.
	order := make([]int32, len(e.specs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return e.specs[order[a]].Start < e.specs[order[b]].Start
	})

	hzn := math.Inf(1)
	if horizon > 0 {
		hzn = float64(horizon)
	}

	t := 0.0
	lastQ := 0.0                // time queues were last advanced
	nextBoundary := math.Inf(1) // pending recompute instant
	cursor := 0

	for e.active > 0 || cursor < len(order) {
		tArr := math.Inf(1)
		if cursor < len(order) {
			tArr = float64(e.specs[order[cursor]].Start)
		}
		tFin := e.peekFinish()
		tn := math.Min(tArr, math.Min(tFin, nextBoundary))
		if math.IsInf(tn, 1) {
			break
		}
		if tn > hzn {
			t = hzn
			break
		}
		t = tn
		dirty := false

		// Finishes due now.
		for {
			fin := e.peekFinish()
			if fin > t {
				break
			}
			e.popFinish(t)
			dirty = true
		}
		// Arrivals due now.
		for cursor < len(order) && float64(e.specs[order[cursor]].Start) <= t {
			e.admit(int(order[cursor]), t)
			cursor++
			dirty = true
		}
		if dirty {
			nb := t + e.quantum
			if nb < nextBoundary {
				nextBoundary = nb
			}
		}
		if nextBoundary <= t {
			nextBoundary = e.recompute(t, lastQ)
			lastQ = t
		}
	}
	// Final queue/pause bookkeeping so hot flags cover the tail.
	if t > lastQ {
		e.advanceQueues(t, t-lastQ)
	}
}

// recompute is the reference quantum-boundary pass.
func (e refEngine) recompute(t, lastQ float64) float64 {
	e.events++
	if dt := t - lastQ; dt > 0 {
		e.advanceQueues(t, dt)
	}
	e.waterfill(t)

	next := math.Inf(1)
	for i := range e.links {
		l := &e.links[i]
		if (l.paused || l.tripped) && l.pausedUntil < next {
			next = l.pausedUntil
		}
		if l.queue > 0 {
			// Keep draining on the quantum cadence.
			if nb := t + e.quantum; nb < next {
				next = nb
			}
		}
	}
	return next
}

// waterfill is the reference progressive filling: every round rescans
// all active flows and all links and divides remCap/nUn afresh.
func (e refEngine) waterfill(t float64) {
	// Compact the active list: completed flows drop out here.
	live := e.actList[:0]
	for _, fi := range e.actList {
		if e.flows[fi].active {
			live = append(live, fi)
		}
	}
	e.actList = live

	// Reset link scratch.
	for i := range e.links {
		l := &e.links[i]
		l.remCap = l.capBps
		if l.paused {
			l.remCap = 0
		}
		l.nUn = 0
		l.alloc = 0
	}
	// Integrate the active flows to t and classify. prev keeps each flow's
	// pre-pass rate so an unchanged share does not invalidate its heap
	// entry (a constant rate leaves the predicted finish instant intact).
	unfrozen := 0
	for _, fi := range e.actList {
		f := &e.flows[fi]
		f.rem -= f.rate * (t - f.upTo)
		if f.rem < 0 {
			f.rem = 0
		}
		if f.blocked {
			f.paused += t - f.upTo
		}
		f.upTo = t
		f.blocked = false
		for _, li := range e.specs[fi].Path {
			l := &e.links[li]
			if l.paused {
				f.blocked = true
			}
			if l.hotNow {
				e.markHot(int(fi))
			}
			if l.nHot > 0 {
				f.warm = true
			}
		}
		prev := f.rate
		if f.blocked {
			if prev != 0 {
				f.rate = 0
				f.gen++
			}
			continue
		}
		f.prevRate = prev
		f.rate = -1 // mark unfrozen
		for _, li := range e.specs[fi].Path {
			e.links[li].nUn++
		}
		unfrozen++
	}

	for unfrozen > 0 {
		share := math.Inf(1)
		for i := range e.links {
			l := &e.links[i]
			if l.nUn > 0 {
				s := l.remCap / float64(l.nUn)
				if s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) {
			// No constraining link (cannot happen: every path has links);
			// freeze the rest at their access cap.
			for _, fi := range e.actList {
				f := &e.flows[fi]
				if f.active && f.rate < 0 {
					e.setRate(int(fi), e.accessCap(int(fi)))
					unfrozen--
				}
			}
			break
		}
		limit := share * (1 + relEps)
		// Freeze every unfrozen flow crossing a bottleneck-level link.
		for _, fi := range e.actList {
			f := &e.flows[fi]
			if !f.active || f.rate >= 0 || f.blocked {
				continue
			}
			hit := false
			for _, li := range e.specs[fi].Path {
				l := &e.links[li]
				if l.nUn > 0 && l.remCap/float64(l.nUn) <= limit {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, li := range e.specs[fi].Path {
				l := &e.links[li]
				l.nUn--
				l.remCap -= share
				if l.remCap < 0 {
					l.remCap = 0
				}
			}
			e.setRate(int(fi), share)
			unfrozen--
		}
	}
	// Rebuild alloc from final rates.
	for _, fi := range e.actList {
		f := &e.flows[fi]
		if !f.active || f.rate <= 0 {
			continue
		}
		for _, li := range e.specs[fi].Path {
			e.links[li].alloc += f.rate
		}
	}
}
