package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dsh/internal/packet"
	"dsh/units"
)

func TestNewSizeDistValidation(t *testing.T) {
	tests := []struct {
		name  string
		sizes []units.ByteSize
		cdfs  []float64
	}{
		{"mismatched lengths", []units.ByteSize{1, 2}, []float64{1}},
		{"too few knots", []units.ByteSize{1}, []float64{1}},
		{"non-increasing sizes", []units.ByteSize{10, 10}, []float64{0.5, 1}},
		{"non-increasing cdf", []units.ByteSize{10, 20}, []float64{0.5, 0.5}},
		{"cdf not ending at 1", []units.ByteSize{10, 20}, []float64{0.5, 0.9}},
		{"cdf above 1", []units.ByteSize{10, 20}, []float64{0.5, 1.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSizeDist("x", tt.sizes, tt.cdfs); err == nil {
				t.Error("invalid distribution accepted")
			}
		})
	}
}

func TestBuiltinDistributions(t *testing.T) {
	for _, d := range []*SizeDist{WebSearch(), DataMining(), Cache(), Hadoop()} {
		t.Run(d.Name(), func(t *testing.T) {
			if d.Mean() <= 0 {
				t.Fatalf("mean = %d", d.Mean())
			}
			rng := rand.New(rand.NewSource(1))
			var sum float64
			const n = 200_000
			for i := 0; i < n; i++ {
				s := d.Sample(rng)
				if s < 1 {
					t.Fatalf("sample %d < 1", s)
				}
				sum += float64(s)
			}
			emp := sum / n
			want := float64(d.Mean())
			if emp < want*0.8 || emp > want*1.2 {
				t.Errorf("empirical mean %.0f vs analytic %.0f (>20%% off)", emp, want)
			}
		})
	}
}

func TestDistributionShapes(t *testing.T) {
	// The headline shape facts the paper's workloads rely on.
	rng := rand.New(rand.NewSource(7))
	frac := func(d *SizeDist, limit units.ByteSize) float64 {
		n, c := 50_000, 0
		for i := 0; i < n; i++ {
			if d.Sample(rng) <= limit {
				c++
			}
		}
		return float64(c) / float64(n)
	}
	if f := frac(DataMining(), 10_000); f < 0.7 {
		t.Errorf("data mining: %.2f of flows ≤10KB, want ≥0.7 (heavy small-flow mass)", f)
	}
	if f := frac(Cache(), 1000); f < 0.4 {
		t.Errorf("cache: %.2f of flows ≤1KB, want ≥0.4", f)
	}
	if f := frac(WebSearch(), 10_000); f > 0.3 {
		t.Errorf("web search: %.2f of flows ≤10KB, want <0.3 (larger flows)", f)
	}
	// Means must be ordered: cache < hadoop < websearch < datamining.
	if !(Cache().Mean() < Hadoop().Mean() && Hadoop().Mean() < WebSearch().Mean() &&
		WebSearch().Mean() < DataMining().Mean()) {
		t.Errorf("mean ordering broken: cache=%d hadoop=%d websearch=%d datamining=%d",
			Cache().Mean(), Hadoop().Mean(), WebSearch().Mean(), DataMining().Mean())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"websearch", "datamining", "cache", "hadoop"} {
		d, err := ByName(name)
		if err != nil || d.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestSampleMonotoneInU(t *testing.T) {
	// Property: sampling is deterministic given the RNG stream; two
	// distributions built identically sample identically.
	f := func(seed int64) bool {
		a, b := WebSearch(), WebSearch()
		ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if a.Sample(ra) != b.Sample(rb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBackgroundLoadAccuracy(t *testing.T) {
	hosts := make([]int, 16)
	for i := range hosts {
		hosts[i] = i
	}
	b := Background{
		Hosts: hosts, Dist: WebSearch(), Load: 0.5,
		HostRate: 100 * units.Gbps,
		Classes:  []packet.Class{0, 1, 2},
	}
	rng := rand.New(rand.NewSource(3))
	dur := 50 * units.Millisecond
	specs := b.Generate(rng, dur, 0)
	if len(specs) == 0 {
		t.Fatal("no flows generated")
	}
	var total units.ByteSize
	for _, sp := range specs {
		total += sp.Size
		if sp.Src == sp.Dst {
			t.Fatal("self-flow generated")
		}
		if sp.Start < 0 || sp.Start >= dur {
			t.Fatalf("start %v outside window", sp.Start)
		}
		if sp.Class > 2 {
			t.Fatalf("class %d outside configured set", sp.Class)
		}
		if sp.Tag != "background" {
			t.Fatalf("tag %q", sp.Tag)
		}
	}
	offered := float64(total) / dur.Seconds()             // B/s
	capacity := float64(16) * float64(100*units.Gbps) / 8 // B/s
	load := offered / capacity
	if load < 0.35 || load > 0.65 {
		t.Errorf("achieved load %.3f, want ≈0.5", load)
	}
}

func TestBackgroundIDsSequential(t *testing.T) {
	hosts := []int{0, 1, 2, 3}
	b := Background{Hosts: hosts, Dist: Cache(), Load: 0.3, HostRate: units.Gbps}
	specs := b.Generate(rand.New(rand.NewSource(1)), 10*units.Millisecond, 100)
	for i, sp := range specs {
		if sp.ID != 100+i {
			t.Fatalf("ID %d at index %d, want %d", sp.ID, i, 100+i)
		}
		if i > 0 && sp.Start < specs[i-1].Start {
			t.Fatal("arrivals not time-ordered")
		}
	}
}

func TestIncastStructure(t *testing.T) {
	racks := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	ic := Incast{
		Racks: racks, FanIn: 4, FlowSize: 64 * 1024,
		Load: 0.3, HostRate: 100 * units.Gbps, Class: 5,
	}
	specs := ic.Generate(rand.New(rand.NewSource(2)), 20*units.Millisecond, 0)
	if len(specs) == 0 || len(specs)%4 != 0 {
		t.Fatalf("%d specs, want positive multiple of fan-in 4", len(specs))
	}
	rackOf := func(h int) int { return h / 4 }
	for i := 0; i < len(specs); i += 4 {
		dst := specs[i].Dst
		start := specs[i].Start
		seen := map[int]bool{}
		for j := i; j < i+4; j++ {
			sp := specs[j]
			if sp.Dst != dst || sp.Start != start {
				t.Fatal("incast event not simultaneous to one receiver")
			}
			if rackOf(sp.Src) == rackOf(dst) {
				t.Fatalf("sender %d in receiver rack", sp.Src)
			}
			if seen[sp.Src] {
				t.Fatalf("duplicate sender %d", sp.Src)
			}
			seen[sp.Src] = true
			if sp.Size != 64*1024 || sp.Class != 5 || sp.Tag != "fanin" {
				t.Fatalf("bad spec %+v", sp)
			}
		}
	}
}

func TestIncastSingleRackExcludesReceiver(t *testing.T) {
	ic := Incast{
		Racks: [][]int{{0, 1, 2, 3, 4}}, FanIn: 3, FlowSize: 1000,
		Load: 0.2, HostRate: units.Gbps,
	}
	specs := ic.Generate(rand.New(rand.NewSource(5)), 50*units.Millisecond, 0)
	for _, sp := range specs {
		if sp.Src == sp.Dst {
			t.Fatal("receiver chosen as sender")
		}
	}
}

func TestIncastFanInTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ic := Incast{Racks: [][]int{{0, 1}}, FanIn: 5, FlowSize: 1, Load: 0.1, HostRate: units.Gbps}
	ic.Generate(rand.New(rand.NewSource(1)), units.Millisecond, 0)
}

func TestGeneratorsDeterministic(t *testing.T) {
	hosts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	mk := func() []FlowSpec {
		b := Background{Hosts: hosts, Dist: Hadoop(), Load: 0.4, HostRate: 100 * units.Gbps}
		return b.Generate(rand.New(rand.NewSource(42)), 10*units.Millisecond, 0)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// specsDigest hashes every field of a schedule plus the generator's next
// RNG draw, so it pins both the output and the length of the draw
// sequence that produced it.
func specsDigest(specs []FlowSpec, rng *rand.Rand) string {
	h := sha256.New()
	for _, sp := range specs {
		fmt.Fprintf(h, "%d %d %d %d %d %d %s\n", sp.ID, sp.Src, sp.Dst, sp.Size, sp.Start, sp.Class, sp.Tag)
	}
	fmt.Fprintf(h, "next %d\n", rng.Int63())
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins each generator's schedule and RNG draw
// sequence at two seeds: buffer reuse and presizing must not change which
// flows are drawn, in what order, or how many draws it takes.
func TestGeneratorDigests(t *testing.T) {
	racks := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}, {16, 17, 18, 19, 20, 21, 22, 23}}
	var hosts []int
	for _, r := range racks {
		hosts = append(hosts, r...)
	}
	gens := map[string]func(*rand.Rand) []FlowSpec{
		"background": func(rng *rand.Rand) []FlowSpec {
			b := Background{Hosts: hosts, Dist: Cache(), Load: 0.25, HostRate: 100 * units.Gbps,
				Classes: []packet.Class{1, 2, 3}}
			return b.Generate(rng, 2*units.Millisecond, 0)
		},
		"incast": func(rng *rand.Rand) []FlowSpec {
			ic := Incast{Racks: racks, FanIn: 12, FlowSize: 64 * 1024, Load: 0.15, HostRate: 100 * units.Gbps}
			return ic.Generate(rng, 2*units.Millisecond, 1_000_000)
		},
		"incast-one-rack": func(rng *rand.Rand) []FlowSpec {
			ic := Incast{Racks: racks[:1], FanIn: 5, FlowSize: 64 * 1024, Load: 0.15, HostRate: 100 * units.Gbps}
			return ic.Generate(rng, 2*units.Millisecond, 0)
		},
	}
	want := map[string]string{
		"background/1":      "7d8a2e347ef183422b91f3699d8b78dd7c712ac0d3b49f58fb39c38e3be51e05",
		"background/7":      "2d59ac1c21241a925bfd4e3d49537333347872840a54abd1e16e162f379c7ff9",
		"incast/1":          "1832c60e869a3fea5e3e65f2d4ce592904b443fcf313918c271ad3a0144e5c67",
		"incast/7":          "9e28d0b11fa68ac1fa12c58564e213b019bbd1c93895787f7a282fff42265e7b",
		"incast-one-rack/1": "44b07985e99bc0792c4a4d86c2274f09d9d8eba503b32f8fc1686ecd64bb8049",
		"incast-one-rack/7": "c8afc0121d6828655a4bcd0fa512ec628bb4572959c5555bf5c986364441df68",
	}
	for name, gen := range gens {
		for _, seed := range []int64{1, 7} {
			key := fmt.Sprintf("%s/%d", name, seed)
			rng := rand.New(rand.NewSource(seed))
			specs := gen(rng)
			if got := specsDigest(specs, rng); got != want[key] {
				t.Errorf("%s: %d specs, digest %s, want %s", key, len(specs), got, want[key])
			}
		}
	}
}
