package match

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// lpmEngine is the longest-prefix-match engine for keys of every width,
// the software model of the LPM capability the paper's designs use for
// their IPv4 and IPv6 FIBs (stages D–G of the base design). It is a
// multibit trie of 16-way nodes: level l resolves key bits 4l..4l+3. A
// prefix of length plen > 0 lives in the node at level (plen-1)/4,
// expanded into the 1<<(4l+4-plen) slots its last bits cover; a slot
// holds the longest prefix of that band covering it. A lookup walks down
// the key's path and keeps the last non-nil slot it passed; the /0 route
// is one pointer beside the root.
//
// Like the exact engine it is written in place beside wait-free readers,
// the way a stage's SRAM is: every slot is an atomic pointer to an
// immutable leaf that embeds its Result, so a reader sees each slot
// before or after a write, never torn, and a *Result handed out stays
// valid forever. Writers serialise on mu and keep two indexes, by prefix
// and by handle. An insert stores its leaf into the covered slots that
// hold nothing or a prefix no longer than its own, so a replace (same
// prefix, same handle) repoints exactly the old leaf's slots. A delete
// stores, into exactly the slots that point at the deleted leaf, the
// longest shorter prefix of the same band (at most three index probes),
// then unlinks the nodes it leaves empty. No write copies anything, and
// nothing is sized for the key space: a table holds the nodes on its
// prefixes' paths.
type lpmEngine struct {
	mu       sync.Mutex // serialises writers; readers never take it
	width    int
	capacity int
	root     lpmNode
	def      atomic.Pointer[lpmLeaf] // the /0 route
	count    atomic.Int64
	byPrefix map[lpmPrefix]*lpmLeaf // the writer's indexes, guarded by mu
	byHandle map[int]*lpmLeaf
	next     int
}

// lpmNode is one 16-way trie node, 256 bytes. A slot's leaf and the child
// below it share a cache line, so a lookup touches one line per level.
type lpmNode struct {
	slots [16]lpmSlot
}

type lpmSlot struct {
	leaf atomic.Pointer[lpmLeaf]
	kid  atomic.Pointer[lpmNode]
}

func (n *lpmNode) empty() bool {
	for i := range n.slots {
		if n.slots[i].leaf.Load() != nil || n.slots[i].kid.Load() != nil {
			return false
		}
	}
	return true
}

// lpmPrefix names a prefix: the key's bytes with every bit past plen zero.
type lpmPrefix struct {
	key  string
	plen int
}

// lpmLeaf is never written after a slot points at it.
type lpmLeaf struct {
	Result
	lpmPrefix
}

func newLPM(widthBits, capacity int) *lpmEngine {
	return &lpmEngine{width: widthBits, capacity: capacity,
		byPrefix: make(map[lpmPrefix]*lpmLeaf), byHandle: make(map[int]*lpmLeaf)}
}

func (t *lpmEngine) Kind() Kind    { return LPM }
func (t *lpmEngine) KeyWidth() int { return t.width }

// nibble is the 4-bit index that key byte b, the byte holding bits
// 4*lvl..4*lvl+3, gives at level lvl.
func nibble(b byte, lvl int) int { return int(b>>(4-4*uint(lvl&1))) & 0xf }

// prefixOf names the first plen bits of key.
func prefixOf(key []byte, plen int) lpmPrefix {
	var buf [16]byte // keys of up to 128 bits are masked on the stack
	b := append(buf[:0], key...)
	for i := range b {
		switch bit := 8 * i; {
		case bit >= plen:
			b[i] = 0
		case bit+8 > plen:
			b[i] &= 0xff << uint(bit+8-plen)
		}
	}
	return lpmPrefix{string(b), plen}
}

// span is the run of slots p covers in the node at its level.
func (n *lpmNode) span(p *lpmPrefix) []lpmSlot {
	lvl := (p.plen - 1) / 4
	lo := nibble(p.key[lvl/2], lvl)
	return n.slots[lo : lo+1<<uint(4*lvl+4-p.plen)]
}

// walk appends to path the nodes from the root down to the one holding
// p (p.plen > 0), creating the missing ones. Callers hold mu.
func (t *lpmEngine) walk(p *lpmPrefix, path []*lpmNode) []*lpmNode {
	n := &t.root
	path = append(path, n)
	for lvl := 0; lvl < (p.plen-1)/4; lvl++ {
		s := &n.slots[nibble(p.key[lvl/2], lvl)]
		if n = s.kid.Load(); n == nil {
			n = new(lpmNode)
			s.kid.Store(n)
		}
		path = append(path, n)
	}
	return path
}

func (l *lpmLeaf) result() *Result {
	if l == nil {
		return nil
	}
	return &l.Result
}

func (t *lpmEngine) Lookup(key []byte) (Result, bool) {
	if !keyLenOK(key, t.width) {
		return Result{}, false
	}
	var r *Result
	if t.width <= 64 {
		r = t.LookupWord(KeyWord(key))
	} else {
		best := t.def.Load()
		for n, lvl := &t.root, 0; n != nil; lvl++ {
			s := &n.slots[nibble(key[lvl/2], lvl)]
			if l := s.leaf.Load(); l != nil {
				best = l
			}
			n = s.kid.Load()
		}
		r = best.result()
	}
	if r == nil {
		return Result{}, false
	}
	return *r, true
}

// LookupWord is Lookup for a key that fits a register: word is the key's
// (width+7)/8 big-endian bytes, tail padding zero (KeyWord of the byte
// key). nil is a miss — always, on an engine whose keys are wider than 64
// bits. The Result is the published leaf's own: read-only, and valid
// forever.
func (t *lpmEngine) LookupWord(word uint64) *Result {
	if t.width > 64 {
		return nil
	}
	best := t.def.Load()
	shift := 8 * uint((t.width+7)/8)
	for n := &t.root; n != nil; {
		shift -= 4
		s := &n.slots[word>>shift&0xf]
		if l := s.leaf.Load(); l != nil {
			best = l
		}
		n = s.kid.Load()
	}
	return best.result()
}

func (t *lpmEngine) Insert(ent Entry) (int, error) {
	if err := checkKeyLen(ent.Key, t.width); err != nil {
		return 0, err
	}
	if ent.PrefixLen < 0 || ent.PrefixLen > t.width {
		return 0, fmt.Errorf("match: prefix length %d out of range [0,%d]", ent.PrefixLen, t.width)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := &lpmLeaf{Result: Result{ActionID: ent.ActionID, Params: append([]uint64(nil), ent.Params...)},
		lpmPrefix: prefixOf(ent.Key, ent.PrefixLen)}
	if old := t.byPrefix[leaf.lpmPrefix]; old != nil {
		leaf.EntryHandle = old.EntryHandle // replace, keeping the handle
	} else if t.capacity > 0 && int(t.count.Load()) >= t.capacity {
		return 0, fmt.Errorf("%w: %d entries", ErrFull, t.capacity)
	} else {
		leaf.EntryHandle = t.next
		t.next++
		t.count.Add(1)
	}
	t.byPrefix[leaf.lpmPrefix] = leaf
	t.byHandle[leaf.EntryHandle] = leaf
	if leaf.plen == 0 {
		t.def.Store(leaf)
		return leaf.EntryHandle, nil
	}
	var buf [32]*lpmNode
	path := t.walk(&leaf.lpmPrefix, buf[:0])
	span := path[len(path)-1].span(&leaf.lpmPrefix)
	for i := range span {
		// Within a band only a longer prefix outranks this one; the same
		// length in its span is the leaf it replaces.
		if cur := span[i].leaf.Load(); cur == nil || cur.plen <= leaf.plen {
			span[i].leaf.Store(leaf)
		}
	}
	return leaf.EntryHandle, nil
}

func (t *lpmEngine) Delete(handle int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, ok := t.byHandle[handle]
	if !ok {
		return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
	}
	delete(t.byHandle, handle)
	delete(t.byPrefix, leaf.lpmPrefix)
	t.count.Add(-1)
	if leaf.plen == 0 {
		t.def.Store(nil)
		return nil
	}
	var buf [32]*lpmNode
	path := t.walk(&leaf.lpmPrefix, buf[:0])
	// The slots the leaf held fall to the longest shorter prefix of its
	// band, which covers every one of them.
	var next *lpmLeaf
	for plen, key := leaf.plen-1, []byte(leaf.key); next == nil && plen > 4*(len(path)-1); plen-- {
		next = t.byPrefix[prefixOf(key, plen)]
	}
	span := path[len(path)-1].span(&leaf.lpmPrefix)
	for i := range span {
		if span[i].leaf.Load() == leaf {
			span[i].leaf.Store(next)
		}
	}
	// A reader already inside an unlinked node finds it empty; no writer
	// reaches it again.
	for lvl := len(path) - 1; lvl > 0 && path[lvl].empty(); lvl-- {
		path[lvl-1].slots[nibble(leaf.key[(lvl-1)/2], lvl-1)].kid.Store(nil)
	}
	return nil
}

func (t *lpmEngine) Len() int { return int(t.count.Load()) }

// Entries returns the installed entries sorted by handle, each key with
// the bits past its prefix length zero.
func (t *lpmEngine) Entries() []Entry {
	t.mu.Lock()
	out := make([]Entry, 0, len(t.byHandle))
	for h, l := range t.byHandle {
		out = append(out, Entry{Key: []byte(l.key), PrefixLen: l.plen, ActionID: l.ActionID,
			Params: append([]uint64(nil), l.Params...), Handle: h})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}
