package mem

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ipsa/internal/match"
)

func TestBlocksForTable(t *testing.T) {
	cases := []struct {
		w, d, bw, bd, want int
	}{
		{128, 4096, 128, 4096, 1},
		{129, 4096, 128, 4096, 2},
		{128, 4097, 128, 4096, 2},
		{256, 8192, 128, 4096, 4},
		{1, 1, 128, 4096, 1},
		{300, 10000, 128, 4096, 9}, // ceil(300/128)=3, ceil(10000/4096)=3
	}
	for _, c := range cases {
		if got := BlocksForTable(c.w, c.d, c.bw, c.bd); got != c.want {
			t.Errorf("BlocksForTable(%d,%d,%d,%d) = %d, want %d", c.w, c.d, c.bw, c.bd, got, c.want)
		}
	}
}

func TestBlocksForTableProperty(t *testing.T) {
	// The paper's formula: blocks cover the table and removing one row or
	// column of blocks would not.
	f := func(w16, d16, bw8, bd8 uint8) bool {
		W, D := int(w16)+1, int(d16)+1
		bw, bd := int(bw8)+1, int(bd8)+1
		n := BlocksForTable(W, D, bw, bd)
		wc := (W + bw - 1) / bw
		dc := (D + bd - 1) / bd
		if n != wc*dc {
			return false
		}
		return wc*bw >= W && dc*bd >= D && (wc-1)*bw < W && (dc-1)*bd < D
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolAllocateRelease(t *testing.T) {
	p, err := NewPool(Config{Blocks: 8, BlockWidth: 64, BlockDepth: 1024, Clusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.FreeBlocks() != 8 {
		t.Fatalf("FreeBlocks = %d", p.FreeBlocks())
	}
	ids, err := p.Allocate("fib", 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || p.FreeBlocks() != 5 {
		t.Errorf("ids=%v free=%d", ids, p.FreeBlocks())
	}
	b, err := p.BlockInfo(ids[0])
	if err != nil || !b.InUse || b.Owner != "fib" {
		t.Errorf("block info %+v, %v", b, err)
	}
	if p.Utilization() != 3.0/8.0 {
		t.Errorf("utilization = %f", p.Utilization())
	}
	if err := p.Release(ids); err != nil {
		t.Fatal(err)
	}
	if p.FreeBlocks() != 8 {
		t.Errorf("free after release = %d", p.FreeBlocks())
	}
	if err := p.Release(ids); err == nil {
		t.Error("double release accepted")
	}
	if err := p.Release([]BlockID{99}); err == nil {
		t.Error("out-of-range release accepted")
	}
}

func TestPoolClusterConstraint(t *testing.T) {
	p, _ := NewPool(Config{Blocks: 8, BlockWidth: 64, BlockDepth: 1024, Clusters: 2})
	// Cluster 0 is blocks 0-3, cluster 1 blocks 4-7.
	ids, err := p.Allocate("a", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if c, _ := p.ClusterOf(id); c != 1 {
			t.Errorf("block %d in cluster %d, want 1", id, c)
		}
	}
	if _, err := p.Allocate("b", 1, 1); err == nil {
		t.Error("over-allocation in cluster 1 accepted")
	}
	if p.FreeBlocksInCluster(0) != 4 || p.FreeBlocksInCluster(1) != 0 {
		t.Errorf("cluster free counts %d/%d", p.FreeBlocksInCluster(0), p.FreeBlocksInCluster(1))
	}
	if _, err := p.Allocate("c", 0, -1); err == nil {
		t.Error("zero-block allocation accepted")
	}
}

func TestPoolPacksClusters(t *testing.T) {
	p, _ := NewPool(Config{Blocks: 8, BlockWidth: 64, BlockDepth: 1024, Clusters: 4})
	// Claim one block from cluster 0 so it's the fullest.
	if _, err := p.Allocate("seed", 1, 0); err != nil {
		t.Fatal(err)
	}
	// An unconstrained single-block allocation should finish cluster 0
	// rather than fragment a fresh cluster.
	ids, err := p.Allocate("next", 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := p.ClusterOf(ids[0]); c != 0 {
		t.Errorf("allocation went to cluster %d, want 0 (densest)", c)
	}
}

func TestNewPoolValidation(t *testing.T) {
	bad := []Config{
		{Blocks: 0, BlockWidth: 1, BlockDepth: 1, Clusters: 1},
		{Blocks: 4, BlockWidth: 0, BlockDepth: 1, Clusters: 1},
		{Blocks: 4, BlockWidth: 1, BlockDepth: 1, Clusters: 0},
		{Blocks: 4, BlockWidth: 1, BlockDepth: 1, Clusters: 5},
	}
	for _, c := range bad {
		if _, err := NewPool(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestCrossbarReachability(t *testing.T) {
	p, _ := NewPool(Config{Blocks: 8, BlockWidth: 64, BlockDepth: 1024, Clusters: 2})
	full, err := NewCrossbar(FullCrossbar, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := NewCrossbar(ClusteredCrossbar, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Full: everything reachable.
	for tsp := 0; tsp < 4; tsp++ {
		for b := BlockID(0); b < 8; b++ {
			ok, err := full.Reachable(tsp, b)
			if err != nil || !ok {
				t.Errorf("full crossbar: TSP %d block %d unreachable", tsp, b)
			}
		}
	}
	// Clustered: TSPs 0,1 -> cluster 0 (blocks 0-3); TSPs 2,3 -> cluster 1.
	ok, _ := clustered.Reachable(0, 0)
	if !ok {
		t.Error("TSP 0 cannot reach block 0")
	}
	ok, _ = clustered.Reachable(0, 7)
	if ok {
		t.Error("TSP 0 reaches block 7 across clusters")
	}
	ok, _ = clustered.Reachable(3, 7)
	if !ok {
		t.Error("TSP 3 cannot reach block 7")
	}
	if err := clustered.Configure(0, []BlockID{7}); err == nil {
		t.Error("cross-cluster Configure accepted")
	}
	if err := clustered.Configure(0, []BlockID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if got := clustered.Routes(0); len(got) != 2 {
		t.Errorf("routes = %v", got)
	}
	clustered.Unwire(0)
	if got := clustered.Routes(0); len(got) != 0 {
		t.Errorf("routes after unwire = %v", got)
	}
	if clustered.Reconfigurations() != 2 {
		t.Errorf("reconfigs = %d", clustered.Reconfigurations())
	}
	if _, err := NewCrossbar(FullCrossbar, p, 0); err == nil {
		t.Error("zero TSPs accepted")
	}
	if FullCrossbar.String() != "full" || ClusteredCrossbar.String() != "clustered" {
		t.Error("kind strings wrong")
	}
}

func TestManagerCreateLookupDrop(t *testing.T) {
	m, err := NewManager(Config{Blocks: 16, BlockWidth: 128, BlockDepth: 1024, Clusters: 2}, FullCrossbar, 8)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.CreateTable("ipv4_lpm", match.LPM, 32, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 32 bits fits one block width; 2048 entries fit 2 depth-1024 blocks.
	if len(tbl.Blocks()) != 2 {
		t.Errorf("blocks = %v", tbl.Blocks())
	}
	if _, err := m.CreateTable("ipv4_lpm", match.LPM, 32, 10, 0); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := tbl.Engine().Insert(match.Entry{Key: []byte{10, 0, 0, 0}, PrefixLen: 8, ActionID: 1}); err != nil {
		t.Fatal(err)
	}
	if r, ok := tbl.Lookup([]byte{10, 1, 1, 1}); !ok || r.ActionID != 1 {
		t.Errorf("lookup = %+v, %v", r, ok)
	}
	tbl.Lookup([]byte{99, 0, 0, 0})
	h, mi := tbl.Stats()
	if h != 1 || mi != 1 {
		t.Errorf("stats = %d/%d", h, mi)
	}
	free := m.Pool().FreeBlocks()
	if err := m.DropTable("ipv4_lpm"); err != nil {
		t.Fatal(err)
	}
	if m.Pool().FreeBlocks() != free+2 {
		t.Error("blocks not recycled on drop")
	}
	if err := m.DropTable("ipv4_lpm"); err == nil {
		t.Error("double drop accepted")
	}
	if _, ok := m.Table("ipv4_lpm"); ok {
		t.Error("dropped table still visible")
	}
}

func TestManagerClusteredPlacementAndMigration(t *testing.T) {
	// 2 clusters of 4 blocks; 4 TSPs, so TSPs 0,1 -> cluster 0.
	m, err := NewManager(Config{Blocks: 8, BlockWidth: 128, BlockDepth: 1024, Clusters: 2}, ClusteredCrossbar, 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.CreateTable("acl", match.Ternary, 64, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tbl.Blocks() {
		if c, _ := m.Pool().ClusterOf(b); c != 0 {
			t.Errorf("block %d placed in cluster %d", b, c)
		}
	}
	key := make([]byte, 8)
	mask := make([]byte, 8)
	for i := range mask {
		mask[i] = 0xff
	}
	key[7] = 5
	if _, err := tbl.Engine().Insert(match.Entry{Key: key, Mask: mask, Priority: 1, ActionID: 42}); err != nil {
		t.Fatal(err)
	}
	// Migrate to TSP 3 (cluster 1): entries must move.
	moved, err := m.Migrate("acl", 3)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("moved = %d, want 1", moved)
	}
	tbl, _ = m.Table("acl")
	for _, b := range tbl.Blocks() {
		if c, _ := m.Pool().ClusterOf(b); c != 1 {
			t.Errorf("post-migration block %d in cluster %d", b, c)
		}
	}
	if r, ok := tbl.Lookup(key); !ok || r.ActionID != 42 {
		t.Errorf("entry lost in migration: %+v, %v", r, ok)
	}
	if m.MigratedEntries() != 1 {
		t.Errorf("MigratedEntries = %d", m.MigratedEntries())
	}
	// Migrating to a TSP in the same cluster is free.
	moved, err = m.Migrate("acl", 2)
	if err != nil || moved != 0 {
		t.Errorf("same-cluster migration moved %d, err %v", moved, err)
	}
	if _, err := m.Migrate("ghost", 0); err == nil {
		t.Error("migrating unknown table accepted")
	}
}

func TestManagerFullCrossbarMigrationIsRewireOnly(t *testing.T) {
	m, _ := NewManager(Config{Blocks: 8, BlockWidth: 128, BlockDepth: 1024, Clusters: 2}, FullCrossbar, 4)
	if _, err := m.CreateTable("t", match.Exact, 16, 100, 0); err != nil {
		t.Fatal(err)
	}
	moved, err := m.Migrate("t", 3)
	if err != nil || moved != 0 {
		t.Errorf("full-crossbar migration moved %d, err %v", moved, err)
	}
}

func TestManagerPoolExhaustion(t *testing.T) {
	m, _ := NewManager(Config{Blocks: 2, BlockWidth: 32, BlockDepth: 64, Clusters: 1}, FullCrossbar, 2)
	if _, err := m.CreateTable("big", match.Exact, 64, 128, 0); err == nil {
		t.Error("table larger than pool accepted")
	} else if !strings.Contains(err.Error(), "big") {
		t.Errorf("error lacks table name: %v", err)
	}
	if len(m.Tables()) != 0 {
		t.Error("failed table left registered")
	}
}

// TestMigrateKeepsHandlesAndEngine: a cross-cluster migration must not
// renumber entry handles (a controller deletes by the handle it was given
// at insert) nor swap the engine under lock-free readers (run under
// -race: the reader goroutine looks up throughout the migrations).
func TestMigrateKeepsHandlesAndEngine(t *testing.T) {
	m, err := NewManager(Config{Blocks: 8, BlockWidth: 64, BlockDepth: 1024, Clusters: 2}, ClusteredCrossbar, 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.CreateTable("host", match.Exact, 32, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	key := func(i int) []byte { return []byte{10, 0, byte(i >> 8), byte(i)} }
	handles := make([]int, n)
	for i := range handles {
		if handles[i], err = tbl.Engine().Insert(match.Entry{Key: key(i), ActionID: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i = (i + 1) % (n / 2) { // the half that is never deleted
			select {
			case <-stop:
				return
			default:
			}
			if r, ok := tbl.Lookup(key(i)); !ok || r.ActionID != i+1 {
				t.Errorf("key %d during migration: %+v, %v", i, r, ok)
				return
			}
		}
	}()
	for round, tsp := range []int{3, 0, 2} { // cluster 1, back to 0, to 1 again
		moved, err := m.Migrate("host", tsp)
		if err != nil {
			t.Fatal(err)
		}
		if want := tbl.Engine().Len(); moved != want {
			t.Errorf("round %d: moved = %d, want %d", round, moved, want)
		}
		// Delete through pre-migration handles: exactly that key goes.
		for i := n/2 + round*10; i < n/2+round*10+10; i++ {
			if err := tbl.Engine().Delete(handles[i]); err != nil {
				t.Fatal(err)
			}
			if _, ok := tbl.Lookup(key(i)); ok {
				t.Errorf("round %d: key %d survived Delete(handle %d)", round, i, handles[i])
			}
		}
		if got, want := tbl.Engine().Len(), n-10*(round+1); got != want {
			t.Errorf("round %d: Len = %d, want %d", round, got, want)
		}
	}
	close(stop)
	<-done
	for i := 0; i < n/2; i++ {
		if r, ok := tbl.Lookup(key(i)); !ok || r.EntryHandle != handles[i] {
			t.Errorf("key %d after migrations: %+v, %v, want handle %d", i, r, ok, handles[i])
		}
	}
}

// TestMigrateFailureLeavesTableRouted: when the crossbar refuses the new
// wiring (here: a TSP it does not know), the table stays on its old
// blocks, the destination blocks go back to the pool and the migration
// counter does not advance.
func TestMigrateFailureLeavesTableRouted(t *testing.T) {
	m, err := NewManager(Config{Blocks: 8, BlockWidth: 64, BlockDepth: 1024, Clusters: 2}, ClusteredCrossbar, 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.CreateTable("host", match.Exact, 32, 1024, 3) // cluster 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Engine().Insert(match.Entry{Key: []byte{10, 0, 0, 1}, ActionID: 1}); err != nil {
		t.Fatal(err)
	}
	blocks, free := tbl.Blocks(), m.Pool().FreeBlocks()
	if moved, err := m.Migrate("host", 99); err == nil || moved != 0 {
		t.Fatalf("Migrate to unknown TSP: moved %d, err %v", moved, err)
	}
	if got := tbl.Blocks(); !reflect.DeepEqual(got, blocks) {
		t.Errorf("blocks after failed migration = %v, want %v", got, blocks)
	}
	if got := m.Pool().FreeBlocks(); got != free {
		t.Errorf("free blocks after failed migration = %d, want %d", got, free)
	}
	if got := m.MigratedEntries(); got != 0 {
		t.Errorf("MigratedEntries after failed migration = %d", got)
	}
	if moved, err := m.Migrate("host", 0); err != nil || moved != 1 {
		t.Errorf("Migrate after a failed one: moved %d, err %v", moved, err)
	}
}

// TestWordLookupBinding: a table hands out its engine's word probe only
// where a word can name a key — exact/hash and LPM keys of at most 64
// bits, asked for at the table's own key length — and the
// probe neither counts nor disagrees with the counted byte lookup.
func TestWordLookupBinding(t *testing.T) {
	m, err := NewManager(Config{Blocks: 64, BlockWidth: 128, BlockDepth: 1024, Clusters: 1}, FullCrossbar, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name     string
		kind     match.Kind
		width    int
		word, pf bool
	}{
		{"exact12", match.Exact, 12, true, true},
		{"hash64", match.Hash, 64, true, true},
		{"exact144", match.Exact, 144, false, false},
		{"lpm32", match.LPM, 32, true, false},
		{"lpm20", match.LPM, 20, true, false},
		{"lpm128", match.LPM, 128, false, false},
		{"ternary32", match.Ternary, 32, false, false},
		{"range16", match.Range, 16, false, false},
	} {
		tbl, err := m.CreateTable(tc.name, tc.kind, tc.width, 64, i)
		if err != nil {
			t.Fatal(err)
		}
		n := (tc.width + 7) / 8
		if got := tbl.WordLookup(n) != nil; got != tc.word {
			t.Errorf("%s: word probe %v, want %v", tc.name, got, tc.word)
		}
		if got := tbl.WordPrefetch() != nil; got != tc.pf {
			t.Errorf("%s: word prefetch %v, want %v", tc.name, got, tc.pf)
		}
		if tbl.WordLookup(n+1) != nil || tbl.WordLookup(n-1) != nil {
			t.Errorf("%s: word probe handed out for another key length", tc.name)
		}
		if tbl.PrefetchUseful() {
			t.Errorf("%s: prefetch useful on an empty table", tc.name)
		}
	}
	tbl, _ := m.Table("exact12")
	key := []byte{0xab, 0xc0} // 12 bits, tail padding zero
	if _, err := tbl.Engine().Insert(match.Entry{Key: key, ActionID: 3, Params: []uint64{9}}); err != nil {
		t.Fatal(err)
	}
	probe := tbl.WordLookup(2)
	if r := probe(0xabc0); r == nil || r.ActionID != 3 || r.Params[0] != 9 {
		t.Fatalf("word probe: %+v", r)
	}
	if r := probe(0xabc1); r != nil {
		t.Fatalf("word probe hit an absent key: %+v", r)
	}
	if h, ms := tbl.Stats(); h != 0 || ms != 0 {
		t.Fatalf("word probes counted: %d hits %d misses", h, ms)
	}
	tbl.AddLookupStats(1, 1)
	if r, ok := tbl.Lookup(key); !ok || r.ActionID != 3 {
		t.Fatalf("byte lookup: %+v,%v", r, ok)
	}
	if h, ms := tbl.Stats(); h != 2 || ms != 1 {
		t.Fatalf("stats %d hits %d misses, want 2 and 1", h, ms)
	}
}
