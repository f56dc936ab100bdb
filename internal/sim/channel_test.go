package sim

import (
	"math/rand"
	"testing"

	"dsh/units"
)

// rec is one observed delivery.
type rec struct {
	at  units.Time
	n   int64
	tag int
}

// recSink records deliveries with the simulated time they fired at.
type recSink struct {
	s    *Simulator
	recs *[]rec
	tag  int
}

func (r *recSink) Run(_ any, n int64) {
	*r.recs = append(*r.recs, rec{at: r.s.Now(), n: n, tag: r.tag})
}

func TestChannelDeliversInOrder(t *testing.T) {
	s := New()
	var got []rec
	sink := recSink{s: s, recs: &got}
	var ch Channel
	ch.Init(s, &sink)
	ch.Push(10, nil, 1)
	ch.Push(10, nil, 2) // same due time: FIFO
	ch.Push(25, nil, 3)
	if ch.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ch.Len())
	}
	s.Run()
	want := []rec{{10, 1, 0}, {10, 2, 0}, {25, 3, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if ch.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", ch.Len())
	}
}

// pushOnDeliver re-pushes into its channel from inside the sink, the shape
// of a transmitter starting the next serialization at delivery time.
type pushOnDeliver struct {
	s    *Simulator
	ch   *Channel
	left int
	hits []units.Time
}

func (a *pushOnDeliver) Run(any, int64) {
	a.hits = append(a.hits, a.s.Now())
	if a.left > 0 {
		a.left--
		a.ch.Push(7, nil, 0)
	}
}

func TestChannelReentrantPush(t *testing.T) {
	s := New()
	var ch Channel
	act := &pushOnDeliver{s: s, ch: &ch, left: 5}
	ch.Init(s, act)
	ch.Push(7, nil, 0)
	s.Run()
	if len(act.hits) != 6 {
		t.Fatalf("got %d deliveries, want 6", len(act.hits))
	}
	for i, at := range act.hits {
		if want := units.Time(7 * (i + 1)); at != want {
			t.Fatalf("delivery %d at %v, want %v", i, at, want)
		}
	}
}

func TestChannelNonFIFOPushPanics(t *testing.T) {
	s := New()
	var got []rec
	sink := recSink{s: s, recs: &got}
	var ch Channel
	ch.Init(s, &sink)
	ch.Push(20, nil, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order channel push")
		}
	}()
	ch.Push(10, nil, 1)
}

// TestChannelMatchesHeapOracle is the equivalence property test: a random
// schedule of pushes and interleaved plain events runs once through
// Channels and once through per-entry AtAction scheduling on a second
// simulator. Push reserves the global seq exactly where AtAction would, and
// re-arms reuse the stored key, so the two simulators hold identical
// (at, seq) event sets at all times — the observed delivery sequences
// (times, payloads, and tie-break order) must match exactly.
func TestChannelMatchesHeapOracle(t *testing.T) {
	const channels = 3
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))

		cs, os := New(), New()
		var cGot, oGot []rec
		var chs [channels]Channel
		cSinks := make([]recSink, channels)
		oSinks := make([]recSink, channels)
		for i := 0; i < channels; i++ {
			cSinks[i] = recSink{s: cs, recs: &cGot, tag: i}
			oSinks[i] = recSink{s: os, recs: &oGot, tag: i}
			chs[i].Init(cs, &cSinks[i])
		}
		// Plain events interleave with channel deliveries on both sides.
		cPlain := recSink{s: cs, recs: &cGot, tag: 99}
		oPlain := recSink{s: os, recs: &oGot, tag: 99}

		var lastDue [channels]units.Time
		var n int64

		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // channel push
				k := rng.Intn(channels)
				// Coarse grid forces plenty of equal timestamps.
				at := cs.Now() + units.Time(5*rng.Intn(10))
				if at < lastDue[k] {
					at = lastDue[k]
				}
				lastDue[k] = at
				n++
				chs[k].PushAt(at, nil, n)
				os.AtAction(at, &oSinks[k], nil, n)
			case op < 7: // plain event on both
				at := cs.Now() + units.Time(5*rng.Intn(10))
				n++
				cs.AtAction(at, &cPlain, nil, n)
				os.AtAction(at, &oPlain, nil, n)
			default: // advance both clocks
				d := units.Time(rng.Intn(20))
				cs.RunUntil(cs.Now() + d)
				os.RunUntil(os.Now() + d)
			}
		}
		cs.Run()
		os.Run()
		if len(cGot) != len(oGot) {
			t.Fatalf("trial %d: channel delivered %d, oracle %d", trial, len(cGot), len(oGot))
		}
		for i := range cGot {
			if cGot[i] != oGot[i] {
				t.Fatalf("trial %d: delivery %d: channel %+v, oracle %+v", trial, i, cGot[i], oGot[i])
			}
		}
	}
}

// TestMassCancellationCompactsHeap pins the satellite fix: cancelling most
// of a large pending set shrinks the heap immediately instead of leaving the
// garbage resident until each entry drifts to the top.
func TestMassCancellationCompactsHeap(t *testing.T) {
	s := New()
	const total, live = 10_000, 1_000
	timers := make([]Timer, 0, total)
	for i := 0; i < total; i++ {
		timers = append(timers, s.Schedule(units.Time(i), func() {}))
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(total, func(i, j int) { timers[i], timers[j] = timers[j], timers[i] })
	for _, tm := range timers[:total-live] {
		tm.Cancel()
	}
	if s.Pending() > 2*live {
		t.Fatalf("Pending = %d after mass cancellation, want <= %d (heap not compacted)",
			s.Pending(), 2*live)
	}
	s.Run()
	if s.Processed() != live {
		t.Fatalf("Processed = %d, want %d", s.Processed(), live)
	}
}

// TestCompactionPreservesOrder checks compaction keeps the survivors' fire
// order intact.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New()
	var got []int
	var timers []Timer
	for i := 0; i < 1000; i++ {
		i := i
		timers = append(timers, s.Schedule(units.Time(1000-i), func() { got = append(got, i) }))
	}
	for i, tm := range timers {
		if i%10 != 3 {
			tm.Cancel()
		}
	}
	s.Run()
	for i := 1; i < len(got); i++ {
		if got[i-1] < got[i] { // descending due times ⇒ descending i
			t.Fatalf("order violated after compaction: %d before %d", got[i-1], got[i])
		}
	}
	if len(got) != 100 {
		t.Fatalf("got %d survivors, want 100", len(got))
	}
}

// TestResetReleasesCapacity pins the Reset contract: pending events are
// dropped, pooled capacity shrinks to roughly one block, the clock and
// counters survive, and the simulator remains usable.
func TestResetReleasesCapacity(t *testing.T) {
	s := New()
	const n = 100_000
	for i := 0; i < n; i++ {
		s.Schedule(units.Time(i), func() {})
	}
	s.RunUntil(n / 2)
	stale := s.Schedule(10, func() { t.Error("event scheduled before Reset ran") })
	processed, now := s.Processed(), s.Now()

	s.Reset()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Reset, want 0", s.Pending())
	}
	if len(s.free) > eventBlockSize || cap(s.free) > eventBlockSize {
		t.Fatalf("free list %d/%d after Reset, want <= one block (%d)",
			len(s.free), cap(s.free), eventBlockSize)
	}
	if cap(s.heap) > 4096 {
		t.Fatalf("heap capacity %d after Reset, want clamped", cap(s.heap))
	}
	if s.Now() != now || s.Processed() != processed {
		t.Fatalf("Reset changed clock/counters: now %v→%v, processed %d→%d",
			now, s.Now(), processed, s.Processed())
	}
	if stale.Active() {
		t.Fatal("pre-Reset Timer still Active")
	}
	stale.Cancel() // must be inert, not corrupting

	ran := false
	s.Schedule(5, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("simulator unusable after Reset")
	}
}

// TestHeapMaxTracksHighWater pins the HeapMax observable.
func TestHeapMaxTracksHighWater(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Schedule(units.Time(i), func() {})
	}
	s.Run()
	if s.HeapMax() != 100 {
		t.Fatalf("HeapMax = %d, want 100", s.HeapMax())
	}
	// Draining does not lower the mark.
	s.Schedule(1, func() {})
	s.Run()
	if s.HeapMax() != 100 {
		t.Fatalf("HeapMax = %d after drain, want 100", s.HeapMax())
	}
}
