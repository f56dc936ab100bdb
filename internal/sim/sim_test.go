package sim

import (
	"testing"

	"dsh/units"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %d, want 30", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(42, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var hits []units.Time
	s.Schedule(10, func() {
		hits = append(hits, s.Now())
		s.Schedule(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestScheduleZeroDelay(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(5, func() {
		s.Schedule(0, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Error("zero-delay event did not run")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	ev := s.Schedule(10, func() { ran = true })
	ev.Cancel()
	if ev.Active() {
		t.Error("cancelled timer still Active")
	}
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Double-cancel and zero-value cancel must not panic.
	ev.Cancel()
	var zero Timer
	zero.Cancel()
	if zero.Active() {
		t.Error("zero Timer is Active")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var count int
	for _, d := range []units.Time{10, 20, 30, 40} {
		s.Schedule(d, func() { count++ })
	}
	s.RunUntil(25)
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
	if s.Now() != 25 {
		t.Errorf("Now = %d, want 25 (clock advanced to deadline)", s.Now())
	}
	s.RunUntil(100)
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(25, func() { ran = true })
	s.RunUntil(25)
	if !ran {
		t.Error("event exactly at deadline did not run")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling into the past")
		}
	}()
	s.At(5, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil callback")
		}
	}()
	s.Schedule(1, nil)
}

func TestProcessedAndPending(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", s.Processed())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

func TestEventAt(t *testing.T) {
	s := New()
	ev := s.Schedule(42, func() {})
	if ev.At() != 42 {
		t.Errorf("At = %d, want 42", ev.At())
	}
	if !ev.Active() {
		t.Error("pending timer not Active")
	}
	s.Run()
	if ev.Active() {
		t.Error("fired timer still Active")
	}
	if ev.At() != -1 {
		t.Errorf("At after fire = %d, want -1", ev.At())
	}
}

// TestStaleTimerIsInert pins the pooling safety property: a handle to an
// event whose node has been recycled for a *new* event must not be able to
// cancel the new event.
func TestStaleTimerIsInert(t *testing.T) {
	s := New()
	stale := s.Schedule(1, func() {})
	s.Run() // fires; node returns to the free list
	ran := false
	fresh := s.Schedule(1, func() { ran = true })
	stale.Cancel() // recycled node, old generation: must be a no-op
	if !fresh.Active() {
		t.Fatal("stale Cancel deactivated the fresh event")
	}
	s.Run()
	if !ran {
		t.Error("fresh event did not run after stale Cancel")
	}
}

func TestManyEventsStress(t *testing.T) {
	s := New()
	const n = 100_000
	var last units.Time = -1
	ok := true
	for i := 0; i < n; i++ {
		d := units.Time((i * 7919) % 1000)
		s.Schedule(d, func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !ok {
		t.Error("time went backwards")
	}
	if s.Processed() != n {
		t.Errorf("Processed = %d, want %d", s.Processed(), n)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Schedule(units.Time(i%100), func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}
