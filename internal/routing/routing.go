// Package routing computes shortest-path route tables with equal-cost
// multi-path (ECMP) selection for arbitrary topologies.
//
// Node IDs are global across hosts and switches; the topology package
// assigns them. Route tables map a destination host to the set of egress
// ports on equal-cost shortest paths; a per-flow hash picks one, so all
// packets of a flow follow a single path (in-order delivery).
//
// ComputeFlat builds the FlatTable the simulation forwards through: one
// contiguous next-hop arena for the whole network, indexed by (node,
// destination host), so the per-packet Route is two array loads plus a hash
// instead of a map lookup. The tests keep a map-backed oracle derived from
// the same BFS (oracle_test.go), and the two agree port-for-port.
package routing

import (
	"fmt"
	"sort"

	"dsh/internal/packet"
)

// Link is one directed edge of the wiring graph.
type Link struct {
	// From and To are node IDs.
	From, To int
	// FromPort is the egress port index on From.
	FromPort int
	// Up marks the link usable; failed links are excluded from routes.
	Up bool
}

// ecmpHash is a splitmix64 finalizer: cheap, deterministic, well-mixed.
func ecmpHash(flowID int) uint64 {
	z := uint64(flowID) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// csr holds the up links in compressed sparse row form: forward edges
// grouped by source node (to/port parallel arrays, off row offsets) and
// reverse neighbours grouped by target node. Flat arrays instead of
// per-node slices keep the build a constant number of allocations.
type csr struct {
	to, port []int32
	off      []int32
	rev      []int32
	revOff   []int32
}

func adjacency(numNodes int, links []Link) csr {
	c := csr{
		off:    make([]int32, numNodes+1),
		revOff: make([]int32, numNodes+1),
	}
	up := 0
	for _, l := range links {
		if !l.Up {
			continue
		}
		if l.From < 0 || l.From >= numNodes || l.To < 0 || l.To >= numNodes {
			panic(fmt.Sprintf("routing: link %+v outside node space %d", l, numNodes))
		}
		c.off[l.From+1]++
		c.revOff[l.To+1]++
		up++
	}
	for i := 0; i < numNodes; i++ {
		c.off[i+1] += c.off[i]
		c.revOff[i+1] += c.revOff[i]
	}
	c.to = make([]int32, up)
	c.port = make([]int32, up)
	c.rev = make([]int32, up)
	fill := make([]int32, 2*numNodes)
	revFill := fill[numNodes:]
	for _, l := range links {
		if !l.Up {
			continue
		}
		i := c.off[l.From] + fill[l.From]
		fill[l.From]++
		c.to[i] = int32(l.To)
		c.port[i] = int32(l.FromPort)
		j := c.revOff[l.To] + revFill[l.To]
		revFill[l.To]++
		c.rev[j] = int32(l.From)
	}
	return c
}

// bfsDist fills dist with hop counts toward dst over the reverse adjacency
// (-1 = unreachable). queue is caller-provided scratch; the pop reuses a
// head index instead of re-slicing so the backing array is stable.
func bfsDist(c csr, dst int, dist []int32, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue = append(queue[:0], int32(dst))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for i := c.revOff[v]; i < c.revOff[v+1]; i++ {
			u := c.rev[i]
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
}

// Flat head words pack (offset, count) of a node's ECMP port group in the
// shared arena: offset in the high bits, count in the low 16.
const (
	headLenBits = 16
	headLenMask = 1<<headLenBits - 1
)

// FlatTable is the dense forwarding state of a whole network: for every
// (node, destination host) pair, a head word locating that pair's sorted
// ECMP port group inside one contiguous int32 arena. Routing a packet is
// two array loads (head, then the hashed port) — no maps, no per-node
// allocations, and the arena is shared read-only by every switch.
type FlatTable struct {
	numNodes int
	numHosts int
	// dstIdx maps a destination host node ID to its column; nil when hosts
	// are exactly 0..numHosts-1 (the topology package's assignment), in
	// which case the host ID is the column.
	dstIdx []int32
	// heads[node*numHosts+col] packs (arena offset << 16 | port count);
	// zero count means unreachable.
	heads []uint64
	// arena holds every port group back to back, each sorted ascending.
	arena []int32
}

// ComputeFlat builds the dense table over the up links; it agrees exactly
// with the map-backed oracle the tests build (ComputeECMP).
func ComputeFlat(numNodes int, links []Link, hosts []int) *FlatTable {
	c := adjacency(numNodes, links)
	ft := &FlatTable{
		numNodes: numNodes,
		numHosts: len(hosts),
		heads:    make([]uint64, numNodes*len(hosts)),
	}
	dense := true
	for i, h := range hosts {
		if h != i {
			dense = false
			break
		}
	}
	if !dense {
		ft.dstIdx = make([]int32, numNodes)
		for i := range ft.dstIdx {
			ft.dstIdx[i] = -1
		}
		for col, h := range hosts {
			if h < 0 || h >= numNodes {
				panic(fmt.Sprintf("routing: host %d outside node space %d", h, numNodes))
			}
			ft.dstIdx[h] = int32(col)
		}
	}

	dist := make([]int32, numNodes)
	queue := make([]int32, 0, numNodes)
	scratch := make([]int, 0, 16)
	for col, dst := range hosts {
		bfsDist(c, dst, dist, queue)
		for n := 0; n < numNodes; n++ {
			if n == dst || dist[n] < 0 {
				continue
			}
			scratch = scratch[:0]
			for i := c.off[n]; i < c.off[n+1]; i++ {
				if dist[c.to[i]] == dist[n]-1 {
					scratch = append(scratch, int(c.port[i]))
				}
			}
			if len(scratch) == 0 {
				continue
			}
			sort.Ints(scratch)
			if len(scratch) > headLenMask {
				panic(fmt.Sprintf("routing: %d ECMP ports exceed head capacity", len(scratch)))
			}
			off := len(ft.arena)
			for _, p := range scratch {
				ft.arena = append(ft.arena, int32(p))
			}
			ft.heads[n*ft.numHosts+col] = uint64(off)<<headLenBits | uint64(len(scratch))
		}
	}
	return ft
}

// col resolves a destination host node ID to its column, or -1.
func (ft *FlatTable) col(dst int) int {
	if ft.dstIdx != nil {
		if dst < 0 || dst >= len(ft.dstIdx) {
			return -1
		}
		return int(ft.dstIdx[dst])
	}
	if dst < 0 || dst >= ft.numHosts {
		return -1
	}
	return dst
}

// NextHops returns node's ECMP port set toward dst (nil if unreachable).
// It allocates and is for tests/inspection; the hot path is NodeTable.Route.
func (ft *FlatTable) NextHops(node, dst int) []int {
	c := ft.col(dst)
	if c < 0 {
		return nil
	}
	h := ft.heads[node*ft.numHosts+c]
	n := int(h & headLenMask)
	if n == 0 {
		return nil
	}
	off := int(h >> headLenBits)
	ports := make([]int, n)
	for i := range ports {
		ports[i] = int(ft.arena[off+i])
	}
	return ports
}

// PortFor returns the egress port node uses toward dst for the given flow
// ID, using the same head/arena loads and ECMP hash as NodeTable.Route. It
// exists so flow-level simulation (internal/flowsim) can walk the exact
// path a packet of that flow would take without materialising a packet.
// It panics when node has no route to dst, matching Route.
func (ft *FlatTable) PortFor(node, dst, flowID int) int {
	c := ft.col(dst)
	if c < 0 {
		panic(fmt.Sprintf("routing: node %d has no route to host %d", node, dst))
	}
	h := ft.heads[node*ft.numHosts+c]
	n := h & headLenMask
	switch n {
	case 0:
		panic(fmt.Sprintf("routing: node %d has no route to host %d", node, dst))
	case 1:
		return int(ft.arena[h>>headLenBits])
	default:
		return int(ft.arena[uint64(h>>headLenBits)+ecmpHash(flowID)%n])
	}
}

// NodeTable is one node's forwarding view into a FlatTable: its row of head
// words plus the shared arena. It is a small value; its Route method is the
// function installed on switches.
type NodeTable struct {
	heads  []uint64 // this node's row, indexed by destination column
	arena  []int32
	dstIdx []int32 // nil when the host ID is the column
	node   int
}

// Node returns node's forwarding view.
func (ft *FlatTable) Node(node int) NodeTable {
	if node < 0 || node >= ft.numNodes {
		panic(fmt.Sprintf("routing: node %d outside node space %d", node, ft.numNodes))
	}
	row := ft.heads[node*ft.numHosts : (node+1)*ft.numHosts]
	return NodeTable{heads: row, arena: ft.arena, dstIdx: ft.dstIdx, node: node}
}

// Route implements the switchdev.Route signature over the flat layout: one
// head load, then one arena load at the flow-hashed offset.
func (nt NodeTable) Route(pkt *packet.Packet, _ int) int {
	d := pkt.Dst
	if nt.dstIdx != nil {
		if d < 0 || d >= len(nt.dstIdx) || nt.dstIdx[d] < 0 {
			panic(fmt.Sprintf("routing: node %d has no route to host %d", nt.node, pkt.Dst))
		}
		d = int(nt.dstIdx[d])
	}
	h := nt.heads[d]
	n := h & headLenMask
	switch n {
	case 0:
		panic(fmt.Sprintf("routing: node %d has no route to host %d", nt.node, pkt.Dst))
	case 1:
		return int(nt.arena[h>>headLenBits])
	default:
		return int(nt.arena[uint64(h>>headLenBits)+ecmpHash(pkt.FlowID)%n])
	}
}
