package mem

import (
	"fmt"
	"sort"
	"sync"
)

// BlockID identifies one physical memory block in the pool.
type BlockID int

// Block describes one physical w×d memory block.
type Block struct {
	ID      BlockID
	Cluster int  // crossbar cluster the block belongs to
	InUse   bool // claimed by a logical table
	Owner   string
}

// Config sizes a memory pool.
type Config struct {
	Blocks     int // number of physical blocks
	BlockWidth int // w: bits per entry
	BlockDepth int // d: entries per block
	Clusters   int // number of crossbar clusters (1 = monolithic pool)
}

// DefaultConfig mirrors the scale of the paper's 8-processor FPGA
// prototype: a pool comfortably larger than the base design's needs.
func DefaultConfig() Config {
	return Config{Blocks: 64, BlockWidth: 128, BlockDepth: 4096, Clusters: 4}
}

func (c Config) validate() error {
	if c.Blocks <= 0 || c.BlockWidth <= 0 || c.BlockDepth <= 0 {
		return fmt.Errorf("mem: non-positive pool dimensions %+v", c)
	}
	if c.Clusters <= 0 || c.Clusters > c.Blocks {
		return fmt.Errorf("mem: cluster count %d invalid for %d blocks", c.Clusters, c.Blocks)
	}
	return nil
}

// BlocksForTable computes the number of blocks a W×D logical table needs in
// a pool with w×d blocks: ceil(W/w) * ceil(D/d) (paper Sec. 2.4).
func BlocksForTable(widthBits, depth, blockWidth, blockDepth int) int {
	wc := (widthBits + blockWidth - 1) / blockWidth
	dc := (depth + blockDepth - 1) / blockDepth
	return wc * dc
}

// Pool is the disaggregated memory pool.
type Pool struct {
	mu     sync.Mutex
	cfg    Config
	blocks []Block
	free   int
}

// NewPool builds a pool.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, free: cfg.Blocks}
	p.blocks = make([]Block, cfg.Blocks)
	per := (cfg.Blocks + cfg.Clusters - 1) / cfg.Clusters
	for i := range p.blocks {
		p.blocks[i] = Block{ID: BlockID(i), Cluster: i / per}
	}
	return p, nil
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// FreeBlocks reports the number of unclaimed blocks.
func (p *Pool) FreeBlocks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free
}

// FreeBlocksInCluster reports unclaimed blocks in one cluster.
func (p *Pool) FreeBlocksInCluster(cluster int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, b := range p.blocks {
		if !b.InUse && b.Cluster == cluster {
			n++
		}
	}
	return n
}

// Allocate claims n blocks for owner. If cluster >= 0 the blocks must all
// come from that cluster (the clustered-crossbar constraint); cluster < 0
// allows any blocks, preferring to pack clusters densely so large later
// requests still fit.
func (p *Pool) Allocate(owner string, n, cluster int) ([]BlockID, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mem: allocation of %d blocks invalid", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var candidates []int
	for i, b := range p.blocks {
		if b.InUse {
			continue
		}
		if cluster >= 0 && b.Cluster != cluster {
			continue
		}
		candidates = append(candidates, i)
	}
	if len(candidates) < n {
		return nil, fmt.Errorf("mem: need %d blocks in %s, only %d free", n, where(cluster), len(candidates))
	}
	if cluster < 0 {
		// Prefer the fullest clusters first to keep whole clusters free.
		freeIn := make(map[int]int)
		for _, i := range candidates {
			freeIn[p.blocks[i].Cluster]++
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			ca, cb := p.blocks[candidates[a]].Cluster, p.blocks[candidates[b]].Cluster
			if freeIn[ca] != freeIn[cb] {
				return freeIn[ca] < freeIn[cb]
			}
			return candidates[a] < candidates[b]
		})
	}
	ids := make([]BlockID, 0, n)
	for _, i := range candidates[:n] {
		p.blocks[i].InUse = true
		p.blocks[i].Owner = owner
		ids = append(ids, p.blocks[i].ID)
	}
	p.free -= n
	return ids, nil
}

// where names a cluster, or the whole pool for -1.
func where(cluster int) string {
	if cluster < 0 {
		return "pool"
	}
	return fmt.Sprintf("cluster %d", cluster)
}

// Release returns blocks to the pool (paper: "if a logical stage is
// deleted, the associated memory blocks are also recycled").
func (p *Pool) Release(ids []BlockID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(p.blocks) {
			return fmt.Errorf("mem: block %d out of range", id)
		}
		if !p.blocks[id].InUse {
			return fmt.Errorf("mem: block %d already free", id)
		}
	}
	for _, id := range ids {
		p.blocks[id].InUse = false
		p.blocks[id].Owner = ""
	}
	p.free += len(ids)
	return nil
}

// BlockInfo returns a copy of the block descriptor.
func (p *Pool) BlockInfo(id BlockID) (Block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < 0 || int(id) >= len(p.blocks) {
		return Block{}, fmt.Errorf("mem: block %d out of range", id)
	}
	return p.blocks[id], nil
}

// ClusterOf reports the cluster a block belongs to.
func (p *Pool) ClusterOf(id BlockID) (int, error) {
	b, err := p.BlockInfo(id)
	if err != nil {
		return 0, err
	}
	return b.Cluster, nil
}

// Utilization reports the fraction of blocks in use.
func (p *Pool) Utilization() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(p.cfg.Blocks-p.free) / float64(p.cfg.Blocks)
}
