// Conservation property tests: under randomized fault scenarios, every
// packet the run injected is either delivered (released back to the pool),
// discarded on a down link (released by the wire-epoch guard or txDone), or
// still resident in a queue / on a wire at the horizon. In pool terms:
// gets − puts must equal the packets still countable in ports. A leak shows
// up as a surplus, a double-Release panics inside packet.Pool.
//
// The tests run the classic engine (LPWorkers 0): the whole network shares
// one packet pool, and every packet on a wire sits in its delivery channel,
// where InFlight counts it. A partitioned network has one pool per LP, and a
// packet pushed onto a wire between LPs waits uncounted in the engine's
// mailbox until the receiving LP drains it, so one gets − puts balance does
// not apply there. The external test package lets us drive the public
// dshsim facade (which imports internal/fault) without an import cycle.
package fault_test

import (
	"testing"

	"dsh/dshsim"
	"dsh/units"
)

func assertConservation(t *testing.T, name string, net *dshsim.Network) {
	t.Helper()
	gets, puts, _ := net.Pool.Stats()
	var live int64
	for _, h := range net.Hosts {
		live += int64(h.Port().QueuedPackets() + h.Port().InFlight())
	}
	for _, sw := range net.Switches {
		for p := 0; p < sw.Ports(); p++ {
			port := sw.Port(p)
			live += int64(port.QueuedPackets() + port.InFlight())
		}
	}
	if gets-puts != live {
		t.Errorf("%s: pool leak: %d packets unaccounted (gets %d, puts %d, resident %d)",
			name, gets-puts-live, gets, puts, live)
	}
	if gets == 0 {
		t.Errorf("%s: run injected no packets; property vacuous", name)
	}
}

func propertySeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1, 2, 3, 4}
	}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

func TestConservationSingleSwitchRandomFaults(t *testing.T) {
	const horizon = units.Millisecond
	for _, seed := range propertySeeds(t) {
		nc := dshsim.NetworkConfig{Scheme: dshsim.DSH, Transport: dshsim.TransportNone, Seed: seed}
		net := dshsim.NewSingleSwitch(nc, 8, 100*units.Gbps)
		sc := dshsim.RandomFaultScenario(net, seed, horizon, 6)
		var specs []dshsim.FlowSpec
		// 8-way all-to-one fan-in plus a reverse flow, launched early so the
		// faults land on live traffic.
		for i := 0; i < 7; i++ {
			specs = append(specs, dshsim.FlowSpec{
				ID: i + 1, Src: i, Dst: 7, Size: 512 * units.KB, Start: 0, Class: 0, Tag: "fanin",
			})
		}
		specs = append(specs, dshsim.FlowSpec{
			ID: 100, Src: 7, Dst: 0, Size: 512 * units.KB, Start: 0, Class: 1, Tag: "rev",
		})
		dshsim.Run(net, dshsim.RunConfig{Specs: specs, Duration: horizon, Faults: &sc})
		assertConservation(t, sc.Name, net)
	}
}

func TestConservationLeafSpineRandomFaults(t *testing.T) {
	const horizon = units.Millisecond
	for _, seed := range propertySeeds(t) {
		// DCQCN exercises the ECN/CNP/ACK packet paths under faults too.
		nc := dshsim.NetworkConfig{Scheme: dshsim.SIH, Transport: dshsim.TransportDCQCN,
			BufferPerCapacity: 40 * units.Microsecond, Seed: seed}
		ls := dshsim.NewLeafSpine(nc, 2, 2, 4, 100*units.Gbps, 100*units.Gbps)
		sc := dshsim.RandomFaultScenario(ls.Network, seed+1000, horizon, 8)
		var specs []dshsim.FlowSpec
		id := 1
		// Cross-leaf pairs in both directions keep every uplink busy.
		for i, src := range ls.LeafHosts[0] {
			dst := ls.LeafHosts[1][i]
			specs = append(specs,
				dshsim.FlowSpec{ID: id, Src: src, Dst: dst, Size: 256 * units.KB, Start: 0, Class: 0, Tag: "fwd"},
				dshsim.FlowSpec{ID: id + 1, Src: dst, Dst: src, Size: 256 * units.KB,
					Start: 50 * units.Microsecond, Class: 2, Tag: "rev"},
			)
			id += 2
		}
		dshsim.Run(ls.Network, dshsim.RunConfig{Specs: specs, Duration: horizon, Faults: &sc})
		assertConservation(t, sc.Name, ls.Network)
	}
}
