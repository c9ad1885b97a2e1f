package mem

import (
	"fmt"
	"slices"
	"sync"
)

// CrossbarKind selects the interconnect topology between TSPs and memory
// blocks (paper Sec. 2.4: "different crossbar types can be used as a
// tradeoff between flexibility and resource consumption").
type CrossbarKind int

const (
	// FullCrossbar lets any TSP reach any block.
	FullCrossbar CrossbarKind = iota
	// ClusteredCrossbar lets a TSP in cluster i reach only blocks in
	// cluster i.
	ClusteredCrossbar
)

// String names the kind.
func (k CrossbarKind) String() string {
	switch k {
	case FullCrossbar:
		return "full"
	case ClusteredCrossbar:
		return "clustered"
	default:
		return fmt.Sprintf("CrossbarKind(%d)", int(k))
	}
}

// Crossbar tracks the static TSP↔block interconnect configuration. It is
// reconfigured (not per packet) whenever rp4bc changes a design.
type Crossbar struct {
	mu   sync.Mutex
	kind CrossbarKind
	pool *Pool
	// tsps maps TSP index -> crossbar cluster; for a full crossbar all
	// TSPs are cluster 0 conceptually but we keep the mapping for cost
	// accounting.
	tspCluster map[int]int
	// routes maps TSP index -> blocks it is wired to.
	routes map[int][]BlockID
	// Reconfigurations counts Configure calls, a proxy for update cost.
	reconfigs int
}

// NewCrossbar wires a crossbar of the given kind over the pool. tspCount
// TSPs are spread evenly over the pool's clusters for the clustered kind.
func NewCrossbar(kind CrossbarKind, pool *Pool, tspCount int) (*Crossbar, error) {
	if tspCount <= 0 {
		return nil, fmt.Errorf("mem: crossbar needs at least one TSP, got %d", tspCount)
	}
	cb := &Crossbar{
		kind:       kind,
		pool:       pool,
		tspCluster: make(map[int]int, tspCount),
		routes:     make(map[int][]BlockID),
	}
	clusters := pool.Config().Clusters
	per := (tspCount + clusters - 1) / clusters
	for i := 0; i < tspCount; i++ {
		if kind == ClusteredCrossbar {
			cb.tspCluster[i] = i / per
		} else {
			cb.tspCluster[i] = 0
		}
	}
	return cb, nil
}

// Kind reports the topology.
func (cb *Crossbar) Kind() CrossbarKind { return cb.kind }

// ClusterOfTSP reports which block cluster a TSP can reach (meaningful for
// the clustered kind; -1 means "all" for the full kind).
func (cb *Crossbar) ClusterOfTSP(tsp int) int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.kind == FullCrossbar {
		return -1
	}
	return cb.tspCluster[tsp]
}

// Reachable reports whether a TSP may be wired to a block under the
// topology constraint.
func (cb *Crossbar) Reachable(tsp int, block BlockID) (bool, error) {
	bc, err := cb.pool.ClusterOf(block)
	if err != nil {
		return false, err
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.kind == FullCrossbar {
		return true, nil
	}
	tc, ok := cb.tspCluster[tsp]
	if !ok {
		return false, fmt.Errorf("mem: unknown TSP %d", tsp)
	}
	return tc == bc, nil
}

// Configure wires a TSP to a set of blocks, replacing its previous routes.
// Every block must be reachable under the topology.
func (cb *Crossbar) Configure(tsp int, blocks []BlockID) error {
	for _, b := range blocks {
		ok, err := cb.Reachable(tsp, b)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("mem: block %d unreachable from TSP %d over %s crossbar", b, tsp, cb.kind)
		}
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	cb.routes[tsp] = append([]BlockID(nil), blocks...)
	cb.reconfigs++
	return nil
}

// Routes returns the blocks a TSP is wired to.
func (cb *Crossbar) Routes(tsp int) []BlockID {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return append([]BlockID(nil), cb.routes[tsp]...)
}

// unroute removes blocks from the routes of every TSP but keep.
func (cb *Crossbar) unroute(blocks []BlockID, keep int) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for tsp, rs := range cb.routes {
		if tsp != keep {
			cb.routes[tsp] = slices.DeleteFunc(rs, func(b BlockID) bool { return slices.Contains(blocks, b) })
		}
	}
}

// Unwire removes a TSP's routes (stage deletion).
func (cb *Crossbar) Unwire(tsp int) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	delete(cb.routes, tsp)
	cb.reconfigs++
}

// Reconfigurations reports how many Configure/Unwire calls have occurred,
// an input to the hardware update-cost model.
func (cb *Crossbar) Reconfigurations() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.reconfigs
}
