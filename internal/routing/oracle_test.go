package routing

import (
	"fmt"
	"sort"

	"dsh/internal/packet"
)

// Table is one node's forwarding table (map-based oracle representation).
type Table struct {
	// next[dst] lists candidate egress ports, sorted for determinism.
	next map[int][]int
}

// NextHops returns the ECMP port set toward dst (nil if unreachable).
func (t *Table) NextHops(dst int) []int { return t.next[dst] }

// Route implements the switchdev.Route signature: it hashes the flow ID
// over the equal-cost port set.
func (t *Table) Route(pkt *packet.Packet, _ int) int {
	ports := t.next[pkt.Dst]
	switch len(ports) {
	case 0:
		panic(fmt.Sprintf("routing: no route to host %d", pkt.Dst))
	case 1:
		return ports[0]
	default:
		return ports[ecmpHash(pkt.FlowID)%uint64(len(ports))]
	}
}

// ComputeECMP builds route tables for every node. hosts lists the node IDs
// that are traffic endpoints; numNodes bounds the ID space. Only links with
// Up=true participate. The result is indexed by node ID; host tables
// contain their single uplink toward every destination.
func ComputeECMP(numNodes int, links []Link, hosts []int) []*Table {
	c := adjacency(numNodes, links)

	tables := make([]*Table, numNodes)
	for n := 0; n < numNodes; n++ {
		tables[n] = &Table{next: make(map[int][]int)}
	}

	// One reverse BFS per destination host yields each node's distance to
	// it; next hops are neighbours one step closer.
	dist := make([]int32, numNodes)
	queue := make([]int32, 0, numNodes)
	for _, dst := range hosts {
		bfsDist(c, dst, dist, queue)
		for n := 0; n < numNodes; n++ {
			if n == dst || dist[n] < 0 {
				continue
			}
			var ports []int
			for i := c.off[n]; i < c.off[n+1]; i++ {
				if dist[c.to[i]] == dist[n]-1 {
					ports = append(ports, int(c.port[i]))
				}
			}
			sort.Ints(ports)
			if len(ports) > 0 {
				tables[n].next[dst] = ports
			}
		}
	}
	return tables
}
