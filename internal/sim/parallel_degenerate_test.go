package sim

import (
	"math/rand"
	"testing"

	"dsh/units"
)

// Degenerate LP shapes: more workers than LPs, a single-LP partition, and
// an idle LP that never owns an event. Each shape runs under the total-order
// oracle, the serial epoch engine, and an over-provisioned worker pool, and
// must be bit-identical across all of them. These are the configurations
// where barrier bookkeeping — not throughput — is what can go wrong:
// workers with no LP to claim, a join tree of one, and an LP whose claimer
// never drains or runs anything.

// buildShape constructs a fixed mesh: nlps LPs, directed edges as
// (src, dst, latency) triples, and two seed events on each LP listed in
// active. LPs outside active never schedule anything themselves; they can
// only ever run if a neighbour's send wakes them.
func buildShape(workers, nlps int, edges [][3]int, active []int, horizon units.Time) *pmesh {
	coord := New()
	par := NewParallel(coord, workers)
	par.forceParallel = true
	m := &pmesh{par: par, coord: coord}
	for i := 0; i < nlps; i++ {
		s, _ := par.NewLP()
		m.nodes = append(m.nodes, &pnode{
			sim:     s,
			rng:     rand.New(rand.NewSource(int64(i)*7919 + 1)),
			horizon: horizon,
		})
	}
	for _, e := range edges {
		m.link(e[0], e[1], units.Time(e[2]))
	}
	for _, i := range active {
		n := m.nodes[i]
		n.sim.ScheduleAction(units.Time(i), n, nil, int64(i))
		n.sim.ScheduleAction(units.Time(10+i), n, nil, int64(100+i))
	}
	return m
}

// runShapeTrio runs the same shape under the oracle, one worker, and
// `workers` workers, and requires bit-identical observables. It returns the
// many-worker mesh for shape-specific assertions.
func runShapeTrio(t *testing.T, build func(workers int) *pmesh, workers int, deadline units.Time) *pmesh {
	t.Helper()
	oracle := build(1)
	oracle.par.runUntilTotalOrder(deadline)
	want := oracle.state()

	serial := build(1)
	serial.par.RunUntil(deadline)
	if got := serial.state(); !sameState(want, got) {
		t.Fatalf("serial epoch run diverged from oracle\noracle: %+v\nserial: %+v", want, got)
	}

	wide := build(workers)
	wide.par.RunUntil(deadline)
	if got := wide.state(); !sameState(want, got) {
		t.Fatalf("%d-worker run diverged from oracle\noracle: %+v\ngot:    %+v", workers, want, got)
	}
	return wide
}

// TestParallelMoreWorkersThanLPs over-provisions the pool: 8 workers, 2
// LPs. RunUntil must cap the participant count at the LP count (extra
// workers would join the tree with nothing to claim) and stay bit-identical
// to serial.
func TestParallelMoreWorkersThanLPs(t *testing.T) {
	build := func(workers int) *pmesh {
		return buildShape(workers, 2,
			[][3]int{{0, 1, 3}, {1, 0, 5}}, []int{0, 1}, 400)
	}
	m := runShapeTrio(t, build, 8, 500)
	if m.par.Processed() == 0 {
		t.Fatal("mesh ran no events")
	}
}

// TestParallelSingleLP partitions into exactly one LP and asks for 4
// workers: the engine must degrade to the serial path (a join tree of one)
// and match the oracle, with a coordinator periodically injecting work so
// the coordinator-turn/epoch interleaving is exercised too.
func TestParallelSingleLP(t *testing.T) {
	build := func(workers int) *pmesh {
		m := buildShape(workers, 1, nil, []int{0}, 400)
		n := m.nodes[0]
		var tick func()
		tick = func() {
			n.sim.AtAction(m.coord.Now()+7, n, nil, 424242)
			if m.coord.Now() < 300 {
				m.coord.Schedule(50, tick)
			}
		}
		m.coord.Schedule(25, tick)
		return m
	}
	m := runShapeTrio(t, build, 4, 500)
	if m.nodes[0].sim.Processed() == 0 {
		t.Fatal("single LP ran no events")
	}
}

// TestParallelIdleLPNoStarvation registers a second LP that never owns an
// event: LP 1's only role is an incoming-edge entry in LP 0's lookahead
// row. The run must terminate (an idle LP must not stall the barrier), stay
// bit-identical to serial, and — because an idle LP's earliest output time
// is unbounded — LP 0's window must open to the full deadline: the whole
// run takes one epoch, where a global-window engine would pay one epoch per
// minimum link latency.
func TestParallelIdleLPNoStarvation(t *testing.T) {
	build := func(workers int) *pmesh {
		return buildShape(workers, 2, [][3]int{{1, 0, 2}}, []int{0}, 400)
	}
	m := runShapeTrio(t, build, 4, 500)
	if got := m.nodes[1].sim.Processed(); got != 0 {
		t.Fatalf("idle LP processed %d events, want 0", got)
	}
	if m.nodes[0].sim.Processed() == 0 {
		t.Fatal("active LP ran no events")
	}
	if e := m.par.Epochs(); e != 1 {
		t.Fatalf("idle-LP shape took %d epochs, want 1 — the pairwise window did not open past the idle edge", e)
	}
}

// fireLog is an Action that records every firing as (time, payload). A
// chain event (payload below 1000) re-arms itself until the horizon and,
// driven by the private rng, adds leaf events that schedule nothing, plus
// timers it cancels straight away. Delays fall on a coarse grid that
// includes zero, so timestamps tie and some events land on the current
// instant.
type fireLog struct {
	s       *Simulator
	rng     *rand.Rand
	log     []int64
	horizon units.Time
}

func (f *fireLog) Run(_ any, k int64) {
	f.log = append(f.log, int64(f.s.Now()), k)
	if f.s.Now() >= f.horizon {
		return
	}
	if k >= 1000 {
		return
	}
	f.s.ScheduleAction(5*units.Time(f.rng.Intn(4)), f, nil, k)
	for i := f.rng.Intn(3); i > 0; i-- {
		f.s.ScheduleAction(5*units.Time(f.rng.Intn(4)), f, nil, 1000+f.rng.Int63n(1000))
	}
	if f.rng.Intn(4) == 0 {
		f.s.ScheduleAction(units.Time(f.rng.Intn(20)), f, nil, -1).Cancel()
	}
}

// TestParallelNoLPsMatchesSimulator pins the classic engine's definition: a
// Parallel with no LPs runs its coordinator exactly as a bare Simulator
// runs itself. The same random schedule goes to both, both are driven with
// the same RunUntil deadlines (ending with a negative one, which drains),
// and after every call the fire order, clock, Processed and HeapMax must
// agree.
func TestParallelNoLPsMatchesSimulator(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		build := func(s *Simulator) *fireLog {
			f := &fireLog{s: s, rng: rand.New(rand.NewSource(seed)), horizon: 400}
			for i := 0; i < 8; i++ {
				s.AtAction(5*units.Time(f.rng.Intn(10)), f, nil, int64(i))
			}
			return f
		}
		bare := New()
		bf := build(bare)
		coord := New()
		par := NewParallel(coord, 2)
		pf := build(coord)

		drng := rand.New(rand.NewSource(^seed))
		deadline := units.Time(0)
		for step := 0; step < 40; step++ {
			if step == 39 {
				deadline = -1
			} else {
				deadline += units.Time(drng.Intn(30))
			}
			bare.RunUntil(deadline)
			par.RunUntil(deadline)
			if len(bf.log) != len(pf.log) {
				t.Fatalf("seed %d step %d: %d firings on Simulator, %d on Parallel",
					seed, step, len(bf.log)/2, len(pf.log)/2)
			}
			for i := range bf.log {
				if bf.log[i] != pf.log[i] {
					t.Fatalf("seed %d step %d: firing %d differs: Simulator %v, Parallel %v",
						seed, step, i/2, bf.log[i&^1:i&^1+2], pf.log[i&^1:i&^1+2])
				}
			}
			if bare.Now() != coord.Now() {
				t.Fatalf("seed %d step %d: clock %v on Simulator, %v on Parallel", seed, step, bare.Now(), coord.Now())
			}
			if bare.Processed() != par.Processed() || bare.HeapMax() != par.HeapMax() {
				t.Fatalf("seed %d step %d: Processed/HeapMax %d/%d on Simulator, %d/%d on Parallel",
					seed, step, bare.Processed(), bare.HeapMax(), par.Processed(), par.HeapMax())
			}
		}
		if bare.Pending() != 0 || len(bf.log) < 1000 {
			t.Fatalf("seed %d: %d events left pending, %d fired; want a drained run of at least 500",
				seed, bare.Pending(), len(bf.log)/2)
		}
	}
}
