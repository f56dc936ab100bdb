package eport

import (
	"math/rand"
	"testing"

	"dsh/internal/packet"
	"dsh/internal/sim"
	"dsh/units"
)

// TestRandomOpsConservation drives a port with random enqueues, pauses,
// resumes, and control frames, then verifies conservation: every enqueued
// byte is eventually delivered exactly once, in order within each class.
func TestRandomOpsConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		p, c := newTestPort(s, nil)
		type sent struct {
			cls packet.Class
			seq units.ByteSize
		}
		var enq []sent
		var bytes units.ByteSize
		var now units.Time
		for i := 0; i < 300; i++ {
			now += units.Time(rng.Intn(int(2 * units.Microsecond)))
			i := i
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // data
				cls := packet.Class(rng.Intn(8))
				size := units.ByteSize(64 + rng.Intn(1500))
				enq = append(enq, sent{cls, units.ByteSize(i)})
				bytes += size
				pkt := &packet.Packet{Type: packet.Data, Size: size, Class: cls, Seq: units.ByteSize(i)}
				s.At(now, func() { p.Enqueue(pkt, int64(i)) })
			case 6: // class pause
				cls := packet.Class(rng.Intn(8))
				s.At(now, func() { p.SetClassPaused(cls, true) })
			case 7: // class resume
				cls := packet.Class(rng.Intn(8))
				s.At(now, func() { p.SetClassPaused(cls, false) })
			case 8: // port pause + later resume
				s.At(now, func() { p.SetPortPaused(true) })
				rel := now + units.Time(rng.Intn(int(20*units.Microsecond)))
				s.At(rel, func() { p.SetPortPaused(false) })
			case 9: // control frame
				s.At(now, func() { p.EnqueueControl(packet.NewPFC(0, rng.Intn(2) == 0)) })
			}
		}
		// Lift all pauses at the end so everything can drain.
		end := now + units.Time(100*units.Microsecond)
		s.At(end, func() {
			p.SetPortPaused(false)
			for cls := 0; cls < 8; cls++ {
				p.SetClassPaused(packet.Class(cls), false)
			}
		})
		s.Run()

		var gotBytes units.ByteSize
		perClassSeqs := map[packet.Class][]units.ByteSize{}
		for _, pkt := range c.pkts {
			if pkt.Type != packet.Data {
				continue
			}
			gotBytes += pkt.Size
			perClassSeqs[pkt.Class] = append(perClassSeqs[pkt.Class], pkt.Seq)
		}
		if gotBytes != bytes {
			t.Fatalf("seed %d: delivered %d bytes, enqueued %d", seed, gotBytes, bytes)
		}
		if p.Backlog() != 0 {
			t.Fatalf("seed %d: residual backlog %d", seed, p.Backlog())
		}
		// In-order within each class.
		wantSeqs := map[packet.Class][]units.ByteSize{}
		for _, e := range enq {
			wantSeqs[e.cls] = append(wantSeqs[e.cls], e.seq)
		}
		for cls, want := range wantSeqs {
			got := perClassSeqs[cls]
			if len(got) != len(want) {
				t.Fatalf("seed %d class %d: %d delivered, want %d", seed, cls, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d class %d: reordered at %d", seed, cls, i)
				}
			}
		}
		// No pause state left dangling.
		for cls := 0; cls < 8; cls++ {
			if p.ClassPaused(packet.Class(cls)) {
				t.Fatalf("seed %d: class %d still paused", seed, cls)
			}
		}
	}
}

// TestDWRRNeverStarvesUnderChurn pauses and resumes random classes while
// all of them stay backlogged; every class must keep making progress
// whenever it is unpaused for long enough.
func TestDWRRNeverStarvesUnderChurn(t *testing.T) {
	s := sim.New()
	p, c := newTestPort(s, nil)
	// Backlog every DWRR class heavily.
	for cls := 0; cls < 7; cls++ {
		for i := 0; i < 200; i++ {
			p.Enqueue(data(packet.Class(cls), 1000), 0)
		}
	}
	// Churn pauses for a while, then lift them.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		at := units.Time(i) * 2 * units.Microsecond
		cls := packet.Class(rng.Intn(7))
		on := rng.Intn(2) == 0
		s.At(at, func() { p.SetClassPaused(cls, on) })
	}
	s.At(200*units.Microsecond, func() {
		for cls := 0; cls < 7; cls++ {
			p.SetClassPaused(packet.Class(cls), false)
		}
	})
	s.Run()
	delivered := map[packet.Class]int{}
	for _, pkt := range c.departed {
		delivered[pkt.Class]++
	}
	for cls := 0; cls < 7; cls++ {
		if delivered[packet.Class(cls)] != 200 {
			t.Errorf("class %d delivered %d/200", cls, delivered[packet.Class(cls)])
		}
	}
}
