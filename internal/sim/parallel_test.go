package sim

import (
	"math/rand"
	"testing"

	"dsh/units"
)

// The parallel engine's contract is bit-identical execution across worker
// counts AND against a one-event-at-a-time total-order reference. These
// tests build randomized synthetic LP meshes whose nodes hash their own
// execution history (event time, payload, rng draws), run the identical
// mesh under several engines, and require every observable — per-LP hash,
// per-LP event count, per-LP clock, coordinator samples — to match exactly.

// pnode is one LP's workload: each event folds its (time, payload) into a
// running hash and then, driven by the node's private rng, schedules more
// local events and/or sends across random outgoing remotes. The rng draw
// sequence depends only on the node's own execution order, which the engine
// contract fixes, so any divergence shows up as a hash mismatch.
type pnode struct {
	sim     *Simulator
	rng     *rand.Rand
	hash    uint64
	outs    []*Remote
	outLat  []units.Time
	outDst  []*pnode
	horizon units.Time
}

func (n *pnode) Run(_ any, k int64) {
	n.hash = n.hash*1099511628211 ^ uint64(n.sim.Now()) ^ uint64(k)
	if n.sim.Now() >= n.horizon {
		return
	}
	// 0–1 local follow-ups, possibly at zero delay (same-timestamp ties);
	// together with the remote branch the mean branching factor stays below
	// one, so trials stay subcritical and the coordinator keeps them fed.
	if n.rng.Intn(2) == 0 {
		d := units.Time(n.rng.Intn(40))
		n.sim.ScheduleAction(d, n, nil, int64(n.rng.Intn(1000)))
	}
	// Maybe a cancelled timer: exercises reaping under every engine.
	if n.rng.Intn(4) == 0 {
		tm := n.sim.ScheduleAction(units.Time(1+n.rng.Intn(30)), n, nil, -7)
		tm.Cancel()
	}
	// Remote deliveries must run as destination-owned state: the Action is
	// the destination node, mirroring how a port delivers into the peer LP.
	if len(n.outs) > 0 && n.rng.Intn(3) == 0 {
		o := n.rng.Intn(len(n.outs))
		extra := units.Time(n.rng.Intn(25))
		n.outs[o].Send(n.outLat[o]+extra, n.outDst[o], nil, int64(n.rng.Intn(1000)))
	}
}

// pmesh is one built instance of a randomized mesh.
type pmesh struct {
	par     *Parallel
	coord   *Simulator
	nodes   []*pnode
	samples []uint64
}

// buildMesh constructs a mesh from a seed: K LPs, a random directed edge set
// with random latencies, seed events on every LP, and a coordinator sampler
// that periodically folds every LP's state into a trace (and occasionally
// injects fresh work onto a random LP, exercising coordinator→LP writes).
func buildMesh(seed int64, workers int) *pmesh {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(6)
	horizon := units.Time(500 + rng.Intn(1500))
	coord := New()
	par := NewParallel(coord, workers)
	// Exercise the real barrier protocol even on a single-P box: the
	// property tests are the coverage for the worker/join code paths.
	par.forceParallel = true
	m := &pmesh{par: par, coord: coord}
	for i := 0; i < k; i++ {
		s, _ := par.NewLP()
		m.nodes = append(m.nodes, &pnode{
			sim:     s,
			rng:     rand.New(rand.NewSource(seed ^ int64(i)*0x9e3779b9)),
			horizon: horizon,
		})
	}
	// Random directed edges (possibly none; possibly multiple per pair).
	for e := rng.Intn(3 * k); e > 0; e-- {
		src := rng.Intn(k)
		dst := rng.Intn(k)
		if dst == src {
			continue
		}
		lat := units.Time(1 + rng.Intn(20))
		n := m.nodes[src]
		n.outs = append(n.outs, par.NewRemote(n.sim, dst, lat))
		n.outLat = append(n.outLat, lat)
		n.outDst = append(n.outDst, m.nodes[dst])
	}
	for i, n := range m.nodes {
		for j := 1 + rng.Intn(3); j > 0; j-- {
			n.sim.ScheduleAction(units.Time(rng.Intn(50)), n, nil, int64(i))
		}
	}
	if rng.Intn(4) != 0 { // most trials have a coordinator workload
		step := units.Time(25 + rng.Intn(100))
		crng := rand.New(rand.NewSource(seed ^ 0x5bf03635))
		var sample func()
		sample = func() {
			h := uint64(coord.Now())
			for _, n := range m.nodes {
				h = h*31 ^ n.hash ^ uint64(n.sim.Now())
			}
			m.samples = append(m.samples, h)
			if crng.Intn(5) == 0 {
				tgt := m.nodes[crng.Intn(k)]
				tgt.sim.AtAction(coord.Now()+units.Time(crng.Intn(30)), tgt, nil, 424242)
			}
			if coord.Now() < horizon {
				coord.Schedule(step, sample)
			}
		}
		coord.Schedule(step, sample)
	}
	return m
}

// meshState is the full observable outcome of a run.
type meshState struct {
	hashes    []uint64
	events    []uint64
	clocks    []units.Time
	samples   []uint64
	processed uint64
}

func (m *pmesh) state() meshState {
	st := meshState{samples: m.samples, processed: m.par.Processed()}
	for _, n := range m.nodes {
		st.hashes = append(st.hashes, n.hash)
		st.events = append(st.events, n.sim.Processed())
		st.clocks = append(st.clocks, n.sim.Now())
	}
	return st
}

func sameState(a, b meshState) bool {
	if a.processed != b.processed || len(a.hashes) != len(b.hashes) || len(a.samples) != len(b.samples) {
		return false
	}
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] || a.events[i] != b.events[i] || a.clocks[i] != b.clocks[i] {
			return false
		}
	}
	for i := range a.samples {
		if a.samples[i] != b.samples[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesTotalOrderOracle is the randomized equivalence
// property: for each trial seed the same mesh is executed by (a) the
// one-event-at-a-time total-order oracle, (b) the epoch scheduler with one
// worker, and (c) the epoch scheduler with four workers — (c) twice, once
// as a single RunUntil and once split at a midpoint deadline. All four
// executions must be bit-identical in every observable.
func TestParallelMatchesTotalOrderOracle(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial)*0x1f3a5d + 11
		deadline := units.Time(2200)

		oracle := buildMesh(seed, 1)
		oracle.par.runUntilTotalOrder(deadline)
		want := oracle.state()

		serial := buildMesh(seed, 1)
		serial.par.RunUntil(deadline)
		if got := serial.state(); !sameState(want, got) {
			t.Fatalf("trial %d: serial epoch run diverged from oracle\noracle: %+v\nserial: %+v", trial, want, got)
		}

		par4 := buildMesh(seed, 4)
		par4.par.RunUntil(deadline)
		if got := par4.state(); !sameState(want, got) {
			t.Fatalf("trial %d: 4-worker run diverged from oracle\noracle: %+v\npar4:   %+v", trial, want, got)
		}

		split := buildMesh(seed, 4)
		split.par.RunUntil(deadline / 3)
		split.par.RunUntil(deadline)
		if got := split.state(); !sameState(want, got) {
			t.Fatalf("trial %d: split-deadline run diverged from oracle\noracle: %+v\nsplit:  %+v", trial, want, got)
		}
	}
}

// TestParallelCoordinatorOrdersFirst pins the (at, lp, seq) tie-break: a
// coordinator event and an LP event at the same timestamp execute
// coordinator-first, and the coordinator observes the LP clock advanced to
// the barrier time.
func TestParallelCoordinatorOrdersFirst(t *testing.T) {
	coord := New()
	par := NewParallel(coord, 2)
	lp, _ := par.NewLP()
	var order []string
	lp.At(100, func() { order = append(order, "lp") })
	coord.At(100, func() {
		order = append(order, "coord")
		if lp.Now() != 100 {
			t.Errorf("coordinator saw LP clock %v, want 100", lp.Now())
		}
	})
	par.RunUntil(200)
	if len(order) != 2 || order[0] != "coord" || order[1] != "lp" {
		t.Errorf("order = %v, want [coord lp]", order)
	}
	if lp.Now() != 200 || coord.Now() != 200 {
		t.Errorf("clocks = %v/%v, want 200/200", lp.Now(), coord.Now())
	}
}

// TestRemoteSendBelowLatencyPanics pins the lookahead-safety guard.
func TestRemoteSendBelowLatencyPanics(t *testing.T) {
	coord := New()
	par := NewParallel(coord, 1)
	a, _ := par.NewLP()
	b, bi := par.NewLP()
	_ = b
	r := par.NewRemote(a, bi, 10)
	n := &pnode{sim: a, rng: rand.New(rand.NewSource(1)), horizon: 0}
	defer func() {
		if recover() == nil {
			t.Error("Send below registered latency did not panic")
		}
	}()
	r.Send(9, n, nil, 0)
}

// TestParallelHugeLookaheadNoRemotes exercises the no-cross-LP-links path:
// with no in-edges every window is bounded only by the coordinator and the
// deadline.
func TestParallelHugeLookaheadNoRemotes(t *testing.T) {
	coord := New()
	par := NewParallel(coord, 2)
	var fired int
	for i := 0; i < 3; i++ {
		lp, _ := par.NewLP()
		lp.At(units.Time(10+i), func() { fired++ })
	}
	par.RunUntil(1000)
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}
