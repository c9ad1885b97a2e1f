package mem

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ipsa/internal/match"
	"ipsa/internal/template"
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
	// keys, or it has no such entry point) and a selector's member pick,
	// resolved once at NewTable.
	word wordEngine
	sel  memberEngine

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
	t.count(ok)
	return r, ok
}

// LookupMember picks a selector table's member for a group and a flow
// hash, and counts the hit or miss; on a table of any other kind it misses.
func (t *Table) LookupMember(group []byte, h uint64) (r match.Result, ok bool) {
	if t.sel != nil {
		r, ok = t.sel.LookupMember(group, h)
	}
	t.count(ok)
	return r, ok
}

func (t *Table) count(hit bool) {
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
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
// exact engine and the LPM trie, at widths of at most 64 bits): the probe
// by word.
type wordEngine interface {
	LookupWord(word uint64) *match.Result
}

// memberEngine is the selector engine's (match.Hash) member pick, by the
// group's bytes and by its word.
type memberEngine interface {
	LookupMember(group []byte, h uint64) (match.Result, bool)
	LookupMemberWord(group, h uint64) *match.Result
}

// NewTable builds a compiled table's engine and resolves its views, once,
// so that no type assertion is left for the packet path to make. The
// table holds no pool blocks: Manager.Adopt places the ones it needs, and a
// switch with no storage module (pisa) uses it as it is.
func NewTable(tt *template.Table) (*Table, error) {
	eng, err := tt.NewEngine()
	if err != nil {
		return nil, err
	}
	t := &Table{Name: tt.Name, KeyWidth: tt.KeyWidth, Depth: tt.Size, engine: eng}
	t.sel, _ = eng.(memberEngine)
	// A wide exact key folds into its word; only the bytes decide.
	if eng.KeyWidth() <= 64 {
		t.word, _ = eng.(wordEngine)
	}
	return t, nil
}

// wordKeyed reports whether a key of keyBytes bytes, carried as one word,
// names the engine's keys.
func (t *Table) wordKeyed(keyBytes int) bool {
	w := t.engine.KeyWidth()
	return w <= 64 && keyBytes == (w+7)/8
}

// WordLookup returns the engine's probe for a key carried as one word —
// the key's keyBytes big-endian bytes, tail padding zero — or nil when the
// table is byte-keyed (wide, ternary, range and selector tables) or its
// keys are not keyBytes long. The probe does no hit/miss accounting
// (callers batch it through AddLookupStats); nil is a miss, and a returned
// Result is the engine's own: read-only, valid forever.
func (t *Table) WordLookup(keyBytes int) func(word uint64) *match.Result {
	if t.word == nil || !t.wordKeyed(keyBytes) {
		return nil
	}
	return t.word.LookupWord
}

// WordMember is WordLookup for a selector table: its member pick by a
// group carried as one word and a flow hash, or nil when the table is no
// selector or its groups are wider than a word or not groupBytes long.
// Results and accounting as for WordLookup.
func (t *Table) WordMember(groupBytes int) func(group, h uint64) *match.Result {
	if t.sel == nil || !t.wordKeyed(groupBytes) {
		return nil
	}
	return t.sel.LookupMemberWord
}

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

// CreateTable builds the engine for a compiled table and adopts it for
// the TSP at tspIndex.
func (m *Manager) CreateTable(tt *template.Table, tspIndex int) (*Table, error) {
	t, err := NewTable(tt)
	if err != nil {
		return nil, err
	}
	if err := m.Adopt(t, tspIndex); err != nil {
		return nil, err
	}
	return t, nil
}

// Adopt allocates blocks for a built table's W×D (KeyWidth×Depth), from
// the cluster of the TSP at tspIndex, and wires them for that TSP. A
// dropped table comes back with its engine, entries and handle intact.
func (m *Manager) Adopt(t *Table, tspIndex int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[t.Name]; ok {
		return fmt.Errorf("mem: table %q already exists", t.Name)
	}
	ids, err := m.pool.Allocate(t.Name, m.blocksFor(t), m.xbar.ClusterOfTSP(tspIndex))
	if err != nil {
		return fmt.Errorf("mem: placing table %q: %w", t.Name, err)
	}
	// Extend (not replace) the TSP's routes with the table's blocks.
	if err := m.xbar.Configure(tspIndex, append(m.xbar.Routes(tspIndex), ids...)); err != nil {
		_ = m.pool.Release(ids)
		return err
	}
	t.blocks = ids
	m.tables[t.Name] = t
	return nil
}

func (m *Manager) blocksFor(t *Table) int {
	cfg := m.pool.Config()
	return BlocksForTable(t.KeyWidth, t.Depth, cfg.BlockWidth, cfg.BlockDepth)
}

// Fits checks, changing nothing, that a commit dropping drops, moving
// each table of moves to its TSP and adopting each of adds at its TSP
// claims no more blocks in any cluster (the pool, for a full crossbar)
// than are free or released there. It checks the balance, not the order
// the steps run in, which can still run out part way.
func (m *Manager) Fits(drops []string, moves map[string]int, adds map[*Table]int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	need := make(map[int]int) // cluster -> blocks claimed, less blocks released
	release := func(t *Table) {
		for _, id := range t.blocks {
			c := -1
			if m.xbar.Kind() == ClusteredCrossbar {
				c, _ = m.pool.ClusterOf(id)
			}
			need[c]--
		}
	}
	for _, name := range drops {
		if t, ok := m.tables[name]; ok {
			release(t)
		}
	}
	for name, tspIndex := range moves {
		if t, ok := m.tables[name]; ok && !m.inCluster(t, m.xbar.ClusterOfTSP(tspIndex)) {
			need[m.xbar.ClusterOfTSP(tspIndex)] += len(t.blocks)
			release(t)
		}
	}
	for t, tspIndex := range adds {
		need[m.xbar.ClusterOfTSP(tspIndex)] += m.blocksFor(t)
	}
	for c, n := range need {
		free := m.pool.FreeBlocks()
		if c >= 0 {
			free = m.pool.FreeBlocksInCluster(c)
		}
		if n > free {
			return fmt.Errorf("mem: commit needs %d more blocks in %s, only %d free", n, where(c), free)
		}
	}
	return nil
}

// inCluster reports whether every block of t sits in cluster (any block
// does for -1, a full crossbar's "all").
func (m *Manager) inCluster(t *Table, cluster int) bool {
	for _, b := range t.blocks {
		if c, err := m.pool.ClusterOf(b); err != nil || (cluster >= 0 && c != cluster) {
			return false
		}
	}
	return true
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
	m.xbar.unroute(t.blocks, -1)
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
// right cluster, Migrate only rewires (to newTSP alone) and reports 0.
func (m *Manager) Migrate(name string, newTSP int) (moved int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[name]
	if !ok {
		return 0, fmt.Errorf("mem: table %q does not exist", name)
	}
	cluster := m.xbar.ClusterOfTSP(newTSP)
	routes := slices.DeleteFunc(m.xbar.Routes(newTSP), func(b BlockID) bool { return slices.Contains(t.blocks, b) })
	if m.inCluster(t, cluster) {
		if err := m.xbar.Configure(newTSP, append(routes, t.blocks...)); err != nil {
			return 0, err
		}
		m.xbar.unroute(t.blocks, newTSP)
		return 0, nil
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
	m.xbar.unroute(old, -1)
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
