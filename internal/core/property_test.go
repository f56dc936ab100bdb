package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsh/internal/packet"
	"dsh/units"
)

// driver replays a random admit/release trace against an MMU and verifies
// conservation invariants after every step.
type driver struct {
	t   *testing.T
	m   MMU
	cfg Config
	// charged mirrors what the MMU should hold per accounted queue.
	charged map[[2]int][]units.ByteSize // FIFO of admitted packet sizes
	total   units.ByteSize
}

func newDriver(t *testing.T, m MMU) *driver {
	return &driver{t: t, m: m, cfg: m.Config(), charged: make(map[[2]int][]units.ByteSize)}
}

func (d *driver) admit(port int, cls packet.Class, size units.ByteSize) {
	ok, acts := d.m.Admit(port, cls, size)
	d.checkActions(acts)
	if ok && int(cls) != d.cfg.AckClass {
		k := [2]int{port, int(cls)}
		d.charged[k] = append(d.charged[k], size)
		d.total += size
	}
	d.invariants()
}

func (d *driver) release(port int, cls packet.Class) {
	k := [2]int{port, int(cls)}
	q := d.charged[k]
	if len(q) == 0 {
		return
	}
	size := q[0]
	d.charged[k] = q[1:]
	d.total -= size
	acts := d.m.Release(port, cls, size)
	d.checkActions(acts)
	d.invariants()
}

func (d *driver) checkActions(acts []Action) {
	for _, a := range acts {
		if a.Port < 0 || a.Port >= d.cfg.Ports {
			d.t.Fatalf("action with bad port: %+v", a)
		}
		if !a.PortLevel && int(a.Class) >= d.cfg.Classes {
			d.t.Fatalf("action with bad class: %+v", a)
		}
	}
}

func (d *driver) invariants() {
	t, m, cfg := d.t, d.m, d.cfg
	if m.SharedUsed() < 0 {
		t.Fatal("negative shared occupancy")
	}
	if m.SharedUsed() > m.SharedCap() {
		t.Fatalf("shared overcommitted: %d > %d", m.SharedUsed(), m.SharedCap())
	}
	var qtotal, hrTotal units.ByteSize
	for p := 0; p < cfg.Ports; p++ {
		if hr := m.HeadroomUsed(p); hr < 0 || hr > m.HeadroomCap(p) {
			t.Fatalf("port %d headroom %d outside [0,%d]", p, hr, m.HeadroomCap(p))
		}
		hrTotal += m.HeadroomUsed(p)
		for c := 0; c < cfg.Classes; c++ {
			ql := m.QueueLen(p, packet.Class(c))
			if ql < 0 {
				t.Fatalf("negative queue length at (%d,%d)", p, c)
			}
			qtotal += ql
		}
	}
	// Conservation: every admitted byte is accounted in exactly one queue.
	if qtotal != d.total {
		t.Fatalf("conservation violated: queues hold %d, admitted %d", qtotal, d.total)
	}
	// Physical bound: occupancy never exceeds the configured buffer.
	if qtotal > cfg.TotalBuffer {
		t.Fatalf("buffer overflow: %d > %d", qtotal, cfg.TotalBuffer)
	}
	if m.Threshold() < 0 {
		t.Fatal("negative DT threshold")
	}
}

func runRandomTrace(t *testing.T, m MMU, seed int64, steps int) {
	cfg := m.Config()
	rng := rand.New(rand.NewSource(seed))
	d := newDriver(t, m)
	for i := 0; i < steps; i++ {
		port := rng.Intn(cfg.Ports)
		cls := packet.Class(rng.Intn(cfg.Classes))
		if rng.Intn(100) < 55 { // slight arrival bias to build occupancy
			size := units.ByteSize(64 + rng.Intn(1500))
			d.admit(port, cls, size)
		} else {
			d.release(port, cls)
		}
	}
	// Full drain must restore the empty state.
	for k, q := range d.charged {
		for range q {
			d.release(k[0], packet.Class(k[1]))
		}
	}
	if m.SharedUsed() != 0 {
		t.Errorf("residual shared occupancy %d after drain", m.SharedUsed())
	}
	for p := 0; p < cfg.Ports; p++ {
		if m.HeadroomUsed(p) != 0 {
			t.Errorf("residual headroom %d on port %d", m.HeadroomUsed(p), p)
		}
		for c := 0; c < cfg.Classes; c++ {
			if m.QueuePaused(p, packet.Class(c)) {
				t.Errorf("queue (%d,%d) still paused after drain", p, c)
			}
		}
		if m.PortPaused(p) {
			t.Errorf("port %d still paused after drain", p)
		}
	}
}

func TestRandomTraceInvariantsSIH(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := testConfig()
		runRandomTrace(t, mustSIH(t, cfg), seed, 5000)
	}
}

func TestRandomTraceInvariantsDSH(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := testConfig()
		runRandomTrace(t, mustDSH(t, cfg), seed, 5000)
	}
}

func TestRandomTraceSmallBuffer(t *testing.T) {
	// A cramped buffer exercises headroom overflow, insurance, and port
	// pause paths aggressively.
	cfg := testConfig()
	cfg.TotalBuffer = 120_000
	cfg.Eta = 4_000
	for seed := int64(100); seed < 104; seed++ {
		runRandomTrace(t, mustSIH(t, cfg), seed, 4000)
		runRandomTrace(t, mustDSH(t, cfg), seed, 4000)
	}
}

// Property: quick-checked headroom equation monotonicity — faster links and
// longer cables always need at least as much headroom.
func TestRequiredHeadroomMonotone(t *testing.T) {
	f := func(r1, r2 uint8, p1, p2 uint16) bool {
		rates := []units.BitRate{10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps, 400 * units.Gbps}
		ra, rb := rates[int(r1)%len(rates)], rates[int(r2)%len(rates)]
		if ra > rb {
			ra, rb = rb, ra
		}
		pa, pb := units.Time(p1)*units.Nanosecond, units.Time(p2)*units.Nanosecond
		if pa > pb {
			pa, pb = pb, pa
		}
		return RequiredHeadroom(ra, pa, 1500) <= RequiredHeadroom(rb, pa, 1500) &&
			RequiredHeadroom(ra, pa, 1500) <= RequiredHeadroom(ra, pb, 1500)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: DSH always reserves less than SIH for the same config, and the
// saving equals (Np·Nq − Np)·η.
func TestDSHSavesHeadroomProperty(t *testing.T) {
	f := func(ports, classes uint8, etaKB uint8) bool {
		np := 1 + int(ports)%32
		nc := 2 + int(classes)%6
		cfg := Config{
			Ports:       np,
			Classes:     nc,
			AckClass:    -1,
			TotalBuffer: 64 * units.MB,
			Eta:         units.ByteSize(1+int(etaKB)%64) * units.KB,
			Alpha:       1.0 / 16.0,
		}
		s, err1 := NewSIH(cfg)
		d, err2 := NewDSH(cfg)
		if err1 != nil || err2 != nil {
			return true // reservation exceeded buffer; nothing to compare
		}
		saving := d.SharedCap() - s.SharedCap()
		want := units.ByteSize(np*(nc-1)) * cfg.Eta
		return saving == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdmitReleaseSIH(b *testing.B) {
	benchmarkAdmitRelease(b, func() MMU {
		m, _ := NewSIH(DefaultConfig(100*units.Gbps, 2*units.Microsecond, 1500))
		return m
	})
}

func BenchmarkAdmitReleaseDSH(b *testing.B) {
	benchmarkAdmitRelease(b, func() MMU {
		m, _ := NewDSH(DefaultConfig(100*units.Gbps, 2*units.Microsecond, 1500))
		return m
	})
}

func benchmarkAdmitRelease(b *testing.B, mk func() MMU) {
	m := mk()
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		port int
		cls  packet.Class
	}
	var fifo []rec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := rng.Intn(32)
		cls := packet.Class(rng.Intn(7))
		if len(fifo) > 2000 {
			r := fifo[0]
			fifo = fifo[1:]
			m.Release(r.port, r.cls, 1500)
		}
		if ok, _ := m.Admit(port, cls, 1500); ok {
			fifo = append(fifo, rec{port, cls})
		}
	}
}
