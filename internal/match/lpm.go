package match

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// lpmTrie is a binary (one bit per level) trie for longest-prefix match.
// It is the software model of the LPM capability the paper's designs use
// for IPv4/IPv6 FIB lookups (stages D–G of the base design).
//
// Lookups are lock-free: readers follow an atomic root pointer into an
// immutable node graph, the same discipline as the exact-match engine's
// snapshot swap. Writers serialise on mu and publish by path copy — an
// update clones only the nodes on the root-to-prefix path (at most width
// of them) and shares every subtree off the path, so update cost stays
// proportional to the prefix length, not the table size.
type lpmTrie struct {
	mu       sync.Mutex // serialises writers; readers never take it
	width    int
	capacity int
	root     atomic.Pointer[trieNode]
	// byHandle is the writer-side handle index. Values are full entry
	// copies rather than node pointers: path copy retires nodes on every
	// update, so a node pointer would go stale immediately.
	byHandle map[int]Entry
	count    atomic.Int64
	next     int
}

// trieNode is immutable once published: writers clone nodes along the
// update path and never modify a node reachable from a published root.
type trieNode struct {
	children [2]*trieNode
	// set marks a stored prefix ending at this node.
	set    bool
	handle int
	entry  Entry
}

func newLPMTrie(widthBits, capacity int) *lpmTrie {
	t := &lpmTrie{
		width:    widthBits,
		capacity: capacity,
		byHandle: make(map[int]Entry),
	}
	t.root.Store(&trieNode{})
	return t
}

func (t *lpmTrie) Kind() Kind    { return LPM }
func (t *lpmTrie) KeyWidth() int { return t.width }

func bitAt(key []byte, i int) int {
	return int(key[i/8]>>uint(7-i%8)) & 1
}

func (t *lpmTrie) Lookup(key []byte) (Result, bool) {
	if !keyLenOK(key, t.width) {
		return Result{}, false
	}
	var best *trieNode
	n := t.root.Load()
	if n.set {
		best = n
	}
	for i := 0; i < t.width && n != nil; i++ {
		n = n.children[bitAt(key, i)]
		if n != nil && n.set {
			best = n
		}
	}
	if best == nil {
		return Result{}, false
	}
	return Result{ActionID: best.entry.ActionID, Params: best.entry.Params, EntryHandle: best.handle}, true
}

// clonePath copies the nodes from the current root down plen bits of key,
// creating missing nodes, and returns the new root plus the terminal
// node. Children off the path are shared with the published graph.
func (t *lpmTrie) clonePath(key []byte, plen int) (root, term *trieNode) {
	cp := *t.root.Load()
	root = &cp
	n := root
	for i := 0; i < plen; i++ {
		b := bitAt(key, i)
		var child trieNode
		if old := n.children[b]; old != nil {
			child = *old
		}
		n.children[b] = &child
		n = &child
	}
	return root, n
}

func (t *lpmTrie) Insert(ent Entry) (int, error) {
	if err := checkKeyLen(ent.Key, t.width); err != nil {
		return 0, err
	}
	if ent.PrefixLen < 0 || ent.PrefixLen > t.width {
		return 0, fmt.Errorf("match: prefix length %d out of range [0,%d]", ent.PrefixLen, t.width)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root, n := t.clonePath(ent.Key, ent.PrefixLen)
	if n.set {
		// Replace, keeping the handle. The unpublished clone is mutable.
		n.entry.ActionID = ent.ActionID
		n.entry.Params = append([]uint64(nil), ent.Params...)
		t.byHandle[n.handle] = n.entry
		t.root.Store(root)
		return n.handle, nil
	}
	if t.capacity > 0 && int(t.count.Load()) >= t.capacity {
		// The cloned path is discarded unpublished; no rollback needed.
		return 0, fmt.Errorf("%w: %d entries", ErrFull, t.capacity)
	}
	cp := ent
	cp.Key = append([]byte(nil), ent.Key...)
	cp.Params = append([]uint64(nil), ent.Params...)
	n.set = true
	n.handle = t.next
	cp.Handle = n.handle
	n.entry = cp
	t.next++
	t.count.Add(1)
	t.byHandle[n.handle] = cp
	t.root.Store(root)
	return n.handle, nil
}

// EntryByHandle returns a copy of the entry with the given handle.
func (t *lpmTrie) EntryByHandle(handle int) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ent, ok := t.byHandle[handle]
	if !ok {
		return Entry{}, false
	}
	cp := ent
	cp.Key = append([]byte(nil), ent.Key...)
	cp.Params = append([]uint64(nil), ent.Params...)
	return cp, true
}

// lookupRange finds the longest prefix matching key whose length lies in
// [loPlen, hiPlen]; used by the DIR-16-8-8 engine's slot recomputation.
// Like Lookup it reads the published root without locking.
func (t *lpmTrie) lookupRange(key []byte, loPlen, hiPlen int) (Entry, bool) {
	if len(key)*8 < t.width {
		return Entry{}, false
	}
	var best *trieNode
	n := t.root.Load()
	if n.set && loPlen <= 0 {
		best = n
	}
	limit := hiPlen
	if limit > t.width {
		limit = t.width
	}
	for i := 0; i < limit && n != nil; i++ {
		n = n.children[bitAt(key, i)]
		if n != nil && n.set && i+1 >= loPlen {
			best = n
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return best.entry, true
}

func (t *lpmTrie) Delete(handle int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ent, ok := t.byHandle[handle]
	if !ok {
		return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
	}
	root, n := t.clonePath(ent.Key, ent.PrefixLen)
	n.set = false
	n.entry = Entry{}
	delete(t.byHandle, handle)
	t.count.Add(-1)
	t.root.Store(root)
	return nil
}

func (t *lpmTrie) Len() int {
	return int(t.count.Load())
}

func (t *lpmTrie) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.set {
			cp := n.entry
			cp.Key = append([]byte(nil), n.entry.Key...)
			cp.Params = append([]uint64(nil), n.entry.Params...)
			out = append(out, cp)
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(t.root.Load())
	return out
}
