package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ipsa/internal/match"
)

// Table is a logical table: a match engine plus the pool blocks backing it.
// Network operators see only the logical table; block bookkeeping is
// internal (paper: "once deployed, network operators are only aware of the
// logical tables").
type Table struct {
	Name     string
	KeyWidth int // W in bits
	Depth    int // D entries

	engine match.Engine
	blocks []BlockID

	// The engine's word-keyed views (nil where a word cannot name its
	// keys, or it has no such entry point), resolved once at CreateTable.
	word wordEngine
	pf   wordPrefetcher

	hits   atomic.Uint64
	misses atomic.Uint64
}

// Engine exposes the lookup engine.
func (t *Table) Engine() match.Engine { return t.engine }

// Blocks returns the backing block ids.
func (t *Table) Blocks() []BlockID { return append([]BlockID(nil), t.blocks...) }

// Lookup performs a lookup and maintains hit/miss counters.
func (t *Table) Lookup(key []byte) (match.Result, bool) {
	r, ok := t.engine.Lookup(key)
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return r, ok
}

// Stats reports cumulative hits and misses.
func (t *Table) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// AddLookupStats credits hit/miss counts accumulated externally (by a
// batch of probes through WordLookup) to the table's counters.
func (t *Table) AddLookupStats(hits, misses uint64) {
	if hits != 0 {
		t.hits.Add(hits)
	}
	if misses != 0 {
		t.misses.Add(misses)
	}
}

// wordEngine is what an engine whose keys fit a register exposes (the
// exact/hash engine and the LPM trie, at widths of at most 64 bits): the
// probe by word, and optionally a touch of the bucket a word hashes to.
type wordEngine interface {
	LookupWord(word uint64) *match.Result
}

type wordPrefetcher interface {
	Prefetch(word uint64) uint64
	PrefetchUseful() bool
}

// bindWord resolves the engine's word views, once, so that no type
// assertion is left for the packet path to make.
func (t *Table) bindWord() {
	if t.KeyWidth > 64 {
		return // a wide exact key folds into its word; only the bytes decide
	}
	t.word, _ = t.engine.(wordEngine)
	t.pf, _ = t.engine.(wordPrefetcher)
}

// WordLookup returns the engine's probe for a key carried as one word —
// the key's keyBytes big-endian bytes, tail padding zero — or nil when the
// table is byte-keyed (wide, ternary and range tables) or its keys
// are not keyBytes long. The probe does no hit/miss accounting (callers
// batch it through AddLookupStats); nil is a miss, and a returned Result is
// the engine's own: read-only, valid forever.
func (t *Table) WordLookup(keyBytes int) func(word uint64) *match.Result {
	if t.word == nil || keyBytes != (t.KeyWidth+7)/8 {
		return nil
	}
	return t.word.LookupWord
}

// WordPrefetch returns the engine's bucket touch for a key as WordLookup
// takes it, or nil when the engine has none. The batch executor calls it
// one packet ahead of the probe and sinks the returned tag so the load
// cannot be optimised away; it never counts as a hit or miss.
func (t *Table) WordPrefetch() func(word uint64) uint64 {
	if t.pf == nil {
		return nil
	}
	return t.pf.Prefetch
}

// PrefetchUseful reports whether a one-ahead prefetch would currently
// help: true only when the engine supports it AND its resident probe
// array has outgrown the cache sizes where speculative touches are pure
// overhead. Re-evaluated by batch executors per batch, so tables grow
// into prefetching as entries are installed.
func (t *Table) PrefetchUseful() bool { return t.pf != nil && t.pf.PrefetchUseful() }

// Manager owns the pool, the crossbar and every logical table — the
// Storage Module (SM) of ipbm.
type Manager struct {
	mu     sync.Mutex
	pool   *Pool
	xbar   *Crossbar
	tables map[string]*Table
	// migrations counts entries moved across clusters, an input to the
	// update-cost model.
	migratedEntries int
}

// NewManager builds a storage manager with tspCount stage processors
// attached over a crossbar of the given kind.
func NewManager(cfg Config, kind CrossbarKind, tspCount int) (*Manager, error) {
	pool, err := NewPool(cfg)
	if err != nil {
		return nil, err
	}
	xbar, err := NewCrossbar(kind, pool, tspCount)
	if err != nil {
		return nil, err
	}
	return &Manager{pool: pool, xbar: xbar, tables: make(map[string]*Table)}, nil
}

// Pool exposes the block pool.
func (m *Manager) Pool() *Pool { return m.pool }

// Crossbar exposes the interconnect.
func (m *Manager) Crossbar() *Crossbar { return m.xbar }

// CreateTable allocates blocks for a W×D table with the given match kind
// and wires it for use by the TSP at tspIndex. With a clustered crossbar
// the blocks come from that TSP's cluster.
func (m *Manager) CreateTable(name string, kind match.Kind, keyWidthBits, depth, tspIndex int) (*Table, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[name]; ok {
		return nil, fmt.Errorf("mem: table %q already exists", name)
	}
	eng, err := match.New(kind, keyWidthBits, depth)
	if err != nil {
		return nil, err
	}
	cfg := m.pool.Config()
	n := BlocksForTable(keyWidthBits, depth, cfg.BlockWidth, cfg.BlockDepth)
	cluster := m.xbar.ClusterOfTSP(tspIndex)
	ids, err := m.pool.Allocate(name, n, cluster)
	if err != nil {
		return nil, fmt.Errorf("mem: placing table %q: %w", name, err)
	}
	t := &Table{Name: name, KeyWidth: keyWidthBits, Depth: depth, engine: eng, blocks: ids}
	t.bindWord()
	m.tables[name] = t
	// Extend (not replace) the TSP's routes with the new table's blocks.
	routes := append(m.xbar.Routes(tspIndex), ids...)
	if err := m.xbar.Configure(tspIndex, routes); err != nil {
		_ = m.pool.Release(ids)
		delete(m.tables, name)
		return nil, err
	}
	return t, nil
}

// Table looks up a logical table by name.
func (m *Manager) Table(name string) (*Table, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[name]
	return t, ok
}

// Tables lists table names.
func (m *Manager) Tables() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tables))
	for n := range m.tables {
		out = append(out, n)
	}
	return out
}

// DropTable releases a table's blocks back to the pool.
func (m *Manager) DropTable(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[name]
	if !ok {
		return fmt.Errorf("mem: table %q does not exist", name)
	}
	if err := m.pool.Release(t.blocks); err != nil {
		return err
	}
	delete(m.tables, name)
	return nil
}

// Migrate moves a table to the cluster reachable from newTSP — the
// expensive operation a clustered crossbar forces when a logical stage
// moves clusters (paper Sec. 2.4): destination blocks are allocated, the
// old ones released, and every entry counts as moved. In this software
// model the entries themselves stay in the table's engine, so lock-free
// lookups run through a migration and controller-held entry handles stay
// valid. With a full crossbar, or when the blocks already sit in the
// right cluster, Migrate only rewires and reports 0.
func (m *Manager) Migrate(name string, newTSP int) (moved int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[name]
	if !ok {
		return 0, fmt.Errorf("mem: table %q does not exist", name)
	}
	cluster := m.xbar.ClusterOfTSP(newTSP)
	inPlace := true // a full crossbar (cluster < 0) reaches every block
	for _, b := range t.blocks {
		c, err := m.pool.ClusterOf(b)
		if err != nil {
			return 0, err
		}
		if cluster >= 0 && c != cluster {
			inPlace = false
			break
		}
	}
	routes := m.xbar.Routes(newTSP)
	if inPlace {
		return 0, m.xbar.Configure(newTSP, append(routes, t.blocks...))
	}
	newIDs, err := m.pool.Allocate(name, len(t.blocks), cluster)
	if err != nil {
		return 0, fmt.Errorf("mem: migrating table %q: %w", name, err)
	}
	// Wire first: a Configure error must leave the table on its old,
	// still-routed blocks and the migration counter untouched.
	if err := m.xbar.Configure(newTSP, append(routes, newIDs...)); err != nil {
		_ = m.pool.Release(newIDs)
		return 0, err
	}
	old := t.blocks
	t.blocks = newIDs
	moved = t.engine.Len()
	m.migratedEntries += moved
	return moved, m.pool.Release(old)
}

// MigratedEntries reports the cumulative number of entries moved by
// cross-cluster migrations.
func (m *Manager) MigratedEntries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migratedEntries
}
