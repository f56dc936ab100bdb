package core

import (
	"testing"

	"dsh/internal/packet"
	"dsh/units"
)

func TestRequiredHeadroom(t *testing.T) {
	tests := []struct {
		name string
		rate units.BitRate
		prop units.Time
		mtu  units.ByteSize
		want units.ByteSize
	}{
		// §V-A: "The link delay is 2us and thus η = 56840B" at 100 Gbps,
		// MTU 1500B: 2*(25000+1500)+3840.
		{"paper evaluation", 100 * units.Gbps, 2 * units.Microsecond, 1500, 56840},
		// §III-A: Trident2 example, 40GbE, Dprop=1.5us, MTU 1500B:
		// C*Dprop = 5Gbit/s... 40Gbps*1.5us = 7500B; 2*(7500+1500)+3840 = 21840.
		{"trident2 example", 40 * units.Gbps, 1500 * units.Nanosecond, 1500, 21840},
		{"zero prop", 100 * units.Gbps, 0, 1500, 2*1500 + 3840},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RequiredHeadroom(tt.rate, tt.prop, tt.mtu); got != tt.want {
				t.Errorf("RequiredHeadroom = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTrident2HeadroomFraction(t *testing.T) {
	// §III-A: Trident2, 12MB memory, 32x40GbE ports, 8 queues, MTU 1500B,
	// Dprop 1.5us => total headroom ~5.33MB, 44.4% of memory.
	eta := RequiredHeadroom(40*units.Gbps, 1500*units.Nanosecond, 1500)
	total := units.ByteSize(32*8) * eta
	frac := float64(total) / float64(12*1000*1000)
	if frac < 0.44 || frac > 0.48 {
		t.Errorf("Trident2 headroom fraction = %.3f, want ~0.444-0.466", frac)
	}
}

func TestPFCProcessingDelay(t *testing.T) {
	if got := PFCProcessingDelay(100 * units.Gbps); got != units.TransmissionTime(3840, 100*units.Gbps) {
		t.Errorf("PFCProcessingDelay = %v", got)
	}
}

// testConfig returns a small, easy-to-reason-about configuration:
// 4 ports, 2 accounted classes (class 2 = ACK exempt... use 3 classes),
// generous values so individual bytes are easy to track.
func testConfig() Config {
	return Config{
		Ports:           4,
		Classes:         3,
		AckClass:        2,
		TotalBuffer:     1000_000,
		PrivatePerQueue: 1000,
		Eta:             10_000,
		Alpha:           1.0 / 16.0,
	}
}

func mustSIH(t *testing.T, cfg Config) *SIH {
	t.Helper()
	m, err := NewSIH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustDSH(t *testing.T, cfg Config) *DSH {
	t.Helper()
	m, err := NewDSH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSharedCapPartition(t *testing.T) {
	cfg := testConfig()
	s := mustSIH(t, cfg)
	// SIH: Bs = 1e6 - 4*2*(1000+10000) = 1e6 - 88000 = 912000.
	if s.SharedCap() != 912_000 {
		t.Errorf("SIH SharedCap = %d, want 912000", s.SharedCap())
	}
	d := mustDSH(t, cfg)
	// DSH: Bs = 1e6 - 4*2*1000 - 4*10000 = 1e6 - 48000 = 952000.
	if d.SharedCap() != 952_000 {
		t.Errorf("DSH SharedCap = %d, want 952000", d.SharedCap())
	}
	if d.SharedCap() <= s.SharedCap() {
		t.Error("DSH must leave more shared buffer than SIH (the whole point)")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Classes = 0 },
		func(c *Config) { c.Classes = 99 },
		func(c *Config) { c.TotalBuffer = 0 },
		func(c *Config) { c.PrivatePerQueue = -1 },
		func(c *Config) { c.Eta = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.TotalBuffer = 10 }, // reservation exceeds buffer
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewSIH(cfg); err == nil {
			t.Errorf("case %d: NewSIH accepted invalid config", i)
		}
		if _, err := NewDSH(cfg); err == nil {
			t.Errorf("case %d: NewDSH accepted invalid config", i)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(100*units.Gbps, 2*units.Microsecond, 1500)
	if cfg.Eta != 56840 {
		t.Errorf("Eta = %d, want 56840", cfg.Eta)
	}
	if cfg.AccountedClasses() != 7 {
		t.Errorf("AccountedClasses = %d, want 7", cfg.AccountedClasses())
	}
	if _, err := NewSIH(cfg); err != nil {
		t.Errorf("default config rejected by SIH: %v", err)
	}
	if _, err := NewDSH(cfg); err != nil {
		t.Errorf("default config rejected by DSH: %v", err)
	}
}

func TestAccountedClassesNoExemption(t *testing.T) {
	cfg := testConfig()
	cfg.AckClass = -1
	if cfg.AccountedClasses() != 3 {
		t.Errorf("AccountedClasses = %d, want 3", cfg.AccountedClasses())
	}
}

func TestPrivateBufferFirst(t *testing.T) {
	for _, newMMU := range []func() MMU{
		func() MMU { return mustSIH(t, testConfig()) },
		func() MMU { return mustDSH(t, testConfig()) },
	} {
		m := newMMU()
		ok, acts := m.Admit(0, 0, 600)
		if !ok || len(acts) != 0 {
			t.Fatalf("[%s] first small packet should go to private silently", m.Scheme())
		}
		if m.SharedUsed() != 0 {
			t.Errorf("[%s] SharedUsed = %d, want 0 (private)", m.Scheme(), m.SharedUsed())
		}
		if m.QueueLen(0, 0) != 600 {
			t.Errorf("[%s] QueueLen = %d, want 600", m.Scheme(), m.QueueLen(0, 0))
		}
		// Second 600B packet does not fit private (cap 1000) -> shared.
		m.Admit(0, 0, 600)
		if m.SharedUsed() != 600 {
			t.Errorf("[%s] SharedUsed = %d, want 600", m.Scheme(), m.SharedUsed())
		}
	}
}

func TestAckClassBypassesAccounting(t *testing.T) {
	for _, m := range []MMU{mustSIH(t, testConfig()), mustDSH(t, testConfig())} {
		ok, acts := m.Admit(0, 2, 64)
		if !ok || len(acts) != 0 {
			t.Errorf("[%s] ACK class should be admitted silently", m.Scheme())
		}
		if m.SharedUsed() != 0 || m.QueueLen(0, 2) != 0 {
			t.Errorf("[%s] ACK class must not be accounted", m.Scheme())
		}
		if acts := m.Release(0, 2, 64); len(acts) != 0 {
			t.Errorf("[%s] ACK release should be silent", m.Scheme())
		}
	}
}

func TestZeroSizeAdmit(t *testing.T) {
	for _, m := range []MMU{mustSIH(t, testConfig()), mustDSH(t, testConfig())} {
		if ok, _ := m.Admit(0, 0, 0); !ok {
			t.Errorf("[%s] zero-size packet rejected", m.Scheme())
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := mustSIH(t, testConfig())
	for _, fn := range []func(){
		func() { m.Admit(-1, 0, 10) },
		func() { m.Admit(4, 0, 10) },
		func() { m.Admit(0, 3, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range queue")
				}
			}()
			fn()
		}()
	}
}

func TestDTThresholdDecreasesWithOccupancy(t *testing.T) {
	m := mustSIH(t, testConfig())
	t0 := m.Threshold()
	// alpha/(…) sanity: T(0) = Bs/16 = 57000.
	if t0 != 57_000 {
		t.Errorf("T(0) = %d, want 57000", t0)
	}
	// Fill private first, then shared.
	m.Admit(0, 0, 1000)
	m.Admit(0, 0, 10_000)
	t1 := m.Threshold()
	if t1 >= t0 {
		t.Errorf("threshold did not decrease: %d -> %d", t0, t1)
	}
	want := units.ByteSize(float64(m.SharedCap()-10_000) / 16.0)
	if t1 != want {
		t.Errorf("T = %d, want %d", t1, want)
	}
	m.Release(0, 0, 10_000)
	if m.Threshold() != t0 {
		t.Errorf("threshold did not recover after release")
	}
}

func TestSIHPauseOnHeadroomEntry(t *testing.T) {
	cfg := testConfig()
	m := mustSIH(t, cfg)
	// Fill queue (1,0): private 1000, then shared up to T, then headroom.
	m.Admit(1, 0, 1000) // private
	var paused bool
	var pauseActs []Action
	for i := 0; i < 10_000 && !paused; i++ {
		ok, acts := m.Admit(1, 0, 1000)
		if !ok {
			t.Fatal("unexpected drop before pause")
		}
		if len(acts) > 0 {
			paused = true
			pauseActs = append(pauseActs, acts...)
		}
	}
	if !paused {
		t.Fatal("no PAUSE emitted")
	}
	if len(pauseActs) != 1 || !pauseActs[0].Pause || pauseActs[0].PortLevel ||
		pauseActs[0].Port != 1 || pauseActs[0].Class != 0 {
		t.Errorf("bad pause action: %+v", pauseActs)
	}
	if !m.QueuePaused(1, 0) {
		t.Error("QueuePaused = false after PAUSE")
	}
	if m.HeadroomUsed(1) == 0 {
		t.Error("headroom not occupied at pause point")
	}
	// Shared occupancy at pause should be near the DT threshold.
	w := m.SharedLen(1, 0)
	T := m.Threshold()
	if w < T-1000 || w > T+1000 {
		t.Errorf("pause at w=%d, T=%d; want within one packet", w, T)
	}
}

func TestSIHDropWhenHeadroomExhausted(t *testing.T) {
	cfg := testConfig()
	m := mustSIH(t, cfg)
	var dropped bool
	for i := 0; i < 100_000 && !dropped; i++ {
		ok, _ := m.Admit(1, 0, 1000)
		dropped = !ok
	}
	if !dropped {
		t.Fatal("queue never dropped with unbounded arrivals")
	}
	if m.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", m.Drops())
	}
	// Headroom must be (nearly) full: within one packet of η.
	if hr := m.HeadroomUsed(1); hr < cfg.Eta-1000 {
		t.Errorf("headroom at drop = %d, want ≥ %d", hr, cfg.Eta-1000)
	}
}

func TestSIHHeadroomIsPerQueue(t *testing.T) {
	cfg := testConfig()
	m := mustSIH(t, cfg)
	// Exhaust queue (0,0) into its headroom, then verify queue (0,1) still
	// has its own full η (static independent reservation).
	for i := 0; i < 100_000; i++ {
		if ok, _ := m.Admit(0, 0, 1000); !ok {
			break
		}
	}
	hr0 := m.HeadroomUsed(0)
	for i := 0; i < 100_000; i++ {
		if ok, _ := m.Admit(0, 1, 1000); !ok {
			break
		}
	}
	if got := m.HeadroomUsed(0) - hr0; got < cfg.Eta-1000 {
		t.Errorf("second queue only absorbed %d of headroom, want ~η=%d", got, cfg.Eta)
	}
}

func TestSIHResumeAfterDrain(t *testing.T) {
	cfg := testConfig()
	m := mustSIH(t, cfg)
	admitted := units.ByteSize(0)
	for i := 0; i < 100_000; i++ {
		ok, acts := m.Admit(1, 0, 1000)
		if !ok {
			break
		}
		admitted += 1000
		if len(acts) > 0 && acts[0].Pause {
			break
		}
	}
	if !m.QueuePaused(1, 0) {
		t.Fatal("setup: queue not paused")
	}
	// The upstream's in-flight bytes land in headroom after the PAUSE.
	for i := 0; i < 3; i++ {
		if ok, _ := m.Admit(1, 0, 1000); !ok {
			t.Fatal("setup: in-flight packet dropped")
		}
		admitted += 1000
	}
	// Drain; expect exactly one RESUME before empty, and only once the
	// queue's headroom is empty again.
	var resumes int
	for drained := units.ByteSize(0); drained < admitted; drained += 1000 {
		acts := m.Release(1, 0, 1000)
		for _, a := range acts {
			if !a.Pause {
				resumes++
				if a.Port != 1 || a.Class != 0 || a.PortLevel {
					t.Errorf("bad resume action %+v", a)
				}
				if h := m.HeadroomUsed(1); h != 0 {
					t.Errorf("resumed with %d B of headroom still in use", h)
				}
			}
		}
	}
	if resumes != 1 {
		t.Errorf("resumes = %d, want 1", resumes)
	}
	if m.QueuePaused(1, 0) {
		t.Error("still paused after full drain")
	}
	if m.SharedUsed() != 0 || m.QueueLen(1, 0) != 0 {
		t.Errorf("residual occupancy after drain: shared=%d qlen=%d", m.SharedUsed(), m.QueueLen(1, 0))
	}
}

func TestSIHReleaseOrderHeadroomFirst(t *testing.T) {
	m := mustSIH(t, testConfig())
	for i := 0; i < 100_000; i++ {
		ok, acts := m.Admit(1, 0, 1000)
		if !ok {
			break
		}
		if len(acts) > 0 && acts[0].Pause {
			break
		}
	}
	hrBefore := m.HeadroomUsed(1)
	sharedBefore := m.SharedLen(1, 0)
	if hrBefore == 0 {
		t.Fatal("setup: no headroom occupied")
	}
	m.Release(1, 0, 500)
	if got := m.HeadroomUsed(1); got != hrBefore-500 {
		t.Errorf("headroom = %d, want %d (freed first)", got, hrBefore-500)
	}
	if m.SharedLen(1, 0) != sharedBefore {
		t.Error("shared decreased before headroom drained")
	}
}

func TestReleaseMoreThanChargedPanics(t *testing.T) {
	for _, m := range []MMU{mustSIH(t, testConfig()), mustDSH(t, testConfig())} {
		m := m
		m.Admit(0, 0, 100)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("[%s] expected panic on over-release", m.Scheme())
				}
			}()
			m.Release(0, 0, 200)
		}()
	}
}

func TestDSHQueuePauseAtLoweredThreshold(t *testing.T) {
	cfg := testConfig()
	m := mustDSH(t, cfg)
	m.Admit(1, 0, 1000) // private
	var paused bool
	for i := 0; i < 100_000 && !paused; i++ {
		ok, acts := m.Admit(1, 0, 1000)
		if !ok {
			t.Fatal("unexpected drop")
		}
		for _, a := range acts {
			if a.Pause && !a.PortLevel {
				paused = true
			}
		}
	}
	if !paused {
		t.Fatal("no queue-level PAUSE")
	}
	// Pause must fire at w ≈ T(t) − η, i.e. η earlier than SIH's T(t).
	w := m.SharedLen(1, 0)
	want := m.Threshold() - cfg.Eta
	if w < want-1000 || w > want+1000 {
		t.Errorf("paused at w=%d, want ≈ T-η = %d", w, want)
	}
	if m.PortPaused(1) {
		t.Error("port must not be paused by a single congested queue")
	}
	if m.HeadroomUsed(1) != 0 {
		t.Error("insurance headroom must stay unused for queue-level congestion")
	}
}

func TestDSHCongestedQueueKeepsUsingSharedAfterPause(t *testing.T) {
	// After queue-level pause, the in-flight packets keep landing in the
	// shared segment (dynamically allocated headroom) — not a static pool.
	cfg := testConfig()
	m := mustDSH(t, cfg)
	for i := 0; i < 100_000; i++ {
		_, acts := m.Admit(1, 0, 1000)
		if len(acts) > 0 && acts[0].Pause && !acts[0].PortLevel {
			break
		}
	}
	wAtPause := m.SharedLen(1, 0)
	// ~η worth of in-flight arrivals after the pause must still be admitted
	// into shared.
	inflight := cfg.Eta
	for sent := units.ByteSize(0); sent < inflight; sent += 1000 {
		ok, _ := m.Admit(1, 0, 1000)
		if !ok {
			t.Fatal("in-flight packet dropped after queue-level pause")
		}
	}
	if got := m.SharedLen(1, 0) - wAtPause; got < inflight {
		t.Errorf("only %d of %d in-flight bytes charged to shared", got, inflight)
	}
	if m.PortPaused(1) {
		t.Error("single queue should not trip the port-level threshold here")
	}
}

func TestDSHPortPauseWhenAllQueuesCongested(t *testing.T) {
	// Drive both accounted classes of one port past the port threshold
	// Xpoff = Nq·T(t). With only 2 accounted classes and α=1/16, pushing
	// sustained traffic into both queues eventually trips the port pause as
	// T collapses.
	cfg := testConfig()
	cfg.Alpha = 4 // high alpha so queue thresholds are loose and port trips first
	m := mustDSH(t, cfg)
	var portPaused bool
	for i := 0; i < 1_000_000 && !portPaused; i++ {
		cls := packet.Class(i % 2)
		ok, acts := m.Admit(1, cls, 1000)
		if !ok {
			t.Fatal("drop before port pause — insurance should have caught this")
		}
		for _, a := range acts {
			if a.PortLevel && a.Pause {
				portPaused = true
			}
		}
	}
	if !portPaused {
		t.Fatal("port never paused")
	}
	if !m.PortPaused(1) {
		t.Error("PortPaused = false")
	}
	// Arrivals while POFF go into the insurance headroom.
	hrBefore := m.HeadroomUsed(1)
	m.Admit(1, 0, 1000)
	if m.HeadroomUsed(1) != hrBefore+1000 {
		t.Errorf("POFF arrival not charged to insurance: %d -> %d", hrBefore, m.HeadroomUsed(1))
	}
}

func TestDSHInsuranceOverflowDrops(t *testing.T) {
	cfg := testConfig()
	cfg.Alpha = 4
	m := mustDSH(t, cfg)
	// Trip port pause, then force more than η of post-pause arrivals.
	for i := 0; i < 1_000_000 && !m.PortPaused(1); i++ {
		m.Admit(1, packet.Class(i%2), 1000)
	}
	var dropped bool
	for sent := units.ByteSize(0); sent <= 2*cfg.Eta; sent += 1000 {
		ok, _ := m.Admit(1, 0, 1000)
		if !ok {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("insurance overflow not detected")
	}
	if m.Drops() == 0 {
		t.Error("Drops not counted")
	}
	if hr := m.HeadroomUsed(1); hr < cfg.Eta-1000 {
		t.Errorf("insurance at drop = %d, want ≈ η", hr)
	}
}

func TestDSHPortResumeAfterDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Alpha = 4
	m := mustDSH(t, cfg)
	var charged [2]units.ByteSize
	for i := 0; i < 1_000_000 && !m.PortPaused(1); i++ {
		cls := i % 2
		if ok, _ := m.Admit(1, packet.Class(cls), 1000); ok {
			charged[cls] += 1000
		}
	}
	// A few POFF stragglers into insurance.
	for i := 0; i < 5; i++ {
		if ok, _ := m.Admit(1, 0, 1000); ok {
			charged[0] += 1000
		}
	}
	if m.HeadroomUsed(1) == 0 {
		t.Fatal("setup: no insurance occupied")
	}
	var portResumes int
	for cls := 0; cls < 2; cls++ {
		for charged[cls] > 0 {
			acts := m.Release(1, packet.Class(cls), 1000)
			charged[cls] -= 1000
			for _, a := range acts {
				if a.PortLevel && !a.Pause {
					portResumes++
					if m.HeadroomUsed(1) != 0 {
						t.Error("port resumed while insurance still occupied (conservative mode)")
					}
				}
			}
		}
	}
	if portResumes != 1 {
		t.Errorf("port resumes = %d, want 1", portResumes)
	}
	if m.PortPaused(1) {
		t.Error("port still paused after drain")
	}
	if m.SharedUsed() != 0 || m.HeadroomUsed(1) != 0 {
		t.Error("residual occupancy after full drain")
	}
}

func TestDSHXQOffClampsAtZero(t *testing.T) {
	cfg := testConfig()
	m := mustDSH(t, cfg)
	// Fresh MMU: T = Bs/16 = 59500, η = 10000 → Xqoff = 49500.
	if got, want := m.XQOff(0), m.Threshold()-cfg.Eta; got != want {
		t.Errorf("XQOff = %d, want %d", got, want)
	}
	// With η above the initial threshold, Xqoff clamps at zero: any arrival
	// into shared pauses immediately.
	big := cfg
	big.Eta = m.Threshold() + 10_000
	m2 := mustDSH(t, big)
	if m2.XQOff(0) != 0 {
		t.Errorf("XQOff = %d, want 0 when T < η", m2.XQOff(0))
	}
	m2.Admit(0, 0, 1000) // private
	_, acts := m2.Admit(0, 0, 1000)
	var paused bool
	for _, a := range acts {
		if a.Pause && !a.PortLevel {
			paused = true
		}
	}
	if !paused {
		t.Error("first shared byte should pause when Xqoff = 0")
	}
}

func TestDSHSharedExhaustionTripsPortPause(t *testing.T) {
	// With a tiny buffer and huge alpha, queues can physically exhaust the
	// shared segment; the next arrival must trip POFF and use insurance
	// rather than drop.
	cfg := testConfig()
	cfg.TotalBuffer = 100_000
	cfg.Alpha = 1000
	m := mustDSH(t, cfg)
	var sawPortPause bool
	for i := 0; i < 10_000; i++ {
		ok, acts := m.Admit(0, 0, 1000)
		if !ok {
			t.Fatal("dropped while insurance available")
		}
		for _, a := range acts {
			if a.PortLevel && a.Pause {
				sawPortPause = true
			}
		}
		if sawPortPause {
			break
		}
	}
	if !sawPortPause {
		t.Fatal("shared exhaustion did not trigger port pause")
	}
	if m.SharedUsed() > m.SharedCap() {
		t.Errorf("shared overcommitted: %d > %d", m.SharedUsed(), m.SharedCap())
	}
}

func TestDSHDisablePortLevelAblation(t *testing.T) {
	cfg := testConfig()
	cfg.Alpha = 4
	cfg.DisablePortLevel = true
	m := mustDSH(t, cfg)
	// Without insurance the reservation shrinks to private only.
	if m.SharedCap() != cfg.TotalBuffer-8*cfg.PrivatePerQueue {
		t.Errorf("SharedCap = %d", m.SharedCap())
	}
	// Flood: no port pause may ever fire, and exhaustion must drop.
	var dropped, portPaused bool
	for i := 0; i < 1_000_000 && !dropped; i++ {
		ok, acts := m.Admit(1, packet.Class(i%2), 1000)
		for _, a := range acts {
			if a.PortLevel {
				portPaused = true
			}
		}
		dropped = !ok
	}
	if portPaused {
		t.Error("port-level action emitted despite ablation")
	}
	if !dropped {
		t.Fatal("no drop despite exhausted shared segment")
	}
	if m.HeadroomUsed(1) != 0 {
		t.Error("insurance used despite ablation")
	}
	if m.Drops() == 0 {
		t.Error("drops not counted")
	}
}
