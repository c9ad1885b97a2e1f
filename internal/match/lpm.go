package match

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// lpmEngine is the longest-prefix-match engine for keys of every width up
// to maxLPMWidth, the software model of the LPM capability the paper's
// designs use for their IPv4 and IPv6 FIBs (stages D–G of the base
// design). It is a multibit trie of 16-way nodes: level l resolves key
// bits 4l..4l+3. A prefix of length plen > 0 lives in the node at level
// (plen-1)/4, expanded into the 1<<(4l+4-plen) slots its last bits cover;
// a slot holds the longest prefix of that band covering it. A lookup
// walks down the key's path and keeps the last non-nil slot it passed;
// the /0 route is one pointer beside the root.
//
// Like the exact engine it is written in place beside wait-free readers,
// the way a stage's SRAM is: every slot is an atomic pointer to an
// immutable leaf that embeds its Result, so a reader sees each slot
// before or after a write, never torn, and a *Result handed out stays
// valid forever. Writers serialise on mu. They find a leaf by handle
// through the versioned handle table the exact engine uses too
// (handles.go), and by prefix either in its slot or in short: a prefix
// whose length is a multiple of 4 fills exactly one slot of its node,
// where nothing in its band outranks it, so it is the leaf of that slot
// with its length; only the others, which a longer prefix of their band
// can hide, are indexed by prefix. An insert stores its leaf into the
// covered slots that hold nothing or a prefix no longer than its own, so
// a replace (same prefix, same handle) repoints exactly the old leaf's
// slots. A delete stores, into exactly the slots that point at the
// deleted leaf, the longest shorter prefix of the same band (at most
// three probes of short), then unlinks the nodes it leaves empty. No
// write copies anything, and nothing is sized for the key space: a table
// holds the nodes on its prefixes' paths.
type lpmEngine struct {
	mu       sync.Mutex // serialises writers; readers never take it
	width    int
	capacity int
	root     lpmNode
	def      atomic.Pointer[lpmLeaf] // the /0 route
	count    atomic.Int64
	handles  handleTable[*lpmLeaf]  // guarded by mu, as is short
	short    map[lpmPrefix]*lpmLeaf // the prefixes with plen%4 != 0
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

// lpmPrefix names a prefix: the key's bytes with every bit past plen
// zero, held inline so that a leaf is one 64-byte allocation.
type lpmPrefix struct {
	key  [maxLPMWidth / 8]byte
	plen int
}

// maxLPMWidth is the widest key an lpmPrefix holds: ipv6_lpm's 128 bits.
const maxLPMWidth = 128

// lpmLeaf is never written after a slot points at it.
type lpmLeaf struct {
	Result
	lpmPrefix
}

func (l *lpmLeaf) handle() int { return l.EntryHandle }

func newLPM(widthBits, capacity int) *lpmEngine {
	return &lpmEngine{width: widthBits, capacity: capacity, short: make(map[lpmPrefix]*lpmLeaf)}
}

func (t *lpmEngine) Kind() Kind    { return LPM }
func (t *lpmEngine) KeyWidth() int { return t.width }

// nibble is the 4-bit index that key byte b, the byte holding bits
// 4*lvl..4*lvl+3, gives at level lvl.
func nibble(b byte, lvl int) int { return int(b>>(4-4*uint(lvl&1))) & 0xf }

// prefixOf names the first plen bits of key.
func prefixOf(key []byte, plen int) lpmPrefix {
	p := lpmPrefix{plen: plen}
	copy(p.key[:], key)
	for i := range p.key {
		switch bit := 8 * i; {
		case bit >= plen:
			p.key[i] = 0
		case bit+8 > plen:
			p.key[i] &= 0xff << uint(bit+8-plen)
		}
	}
	return p
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

// leafOf returns the installed leaf named p, or nil. Callers hold mu.
func (t *lpmEngine) leafOf(p *lpmPrefix) *lpmLeaf {
	switch {
	case p.plen == 0:
		return t.def.Load()
	case p.plen%4 != 0:
		return t.short[*p]
	}
	n := &t.root
	for lvl := 0; n != nil && lvl < (p.plen-1)/4; lvl++ {
		n = n.slots[nibble(p.key[lvl/2], lvl)].kid.Load()
	}
	if n == nil {
		return nil
	}
	// The one slot p fills; only p itself has its length there.
	if l := n.span(p)[0].leaf.Load(); l != nil && l.plen == p.plen {
		return l
	}
	return nil
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
	if old := t.leafOf(&leaf.lpmPrefix); old != nil {
		leaf.EntryHandle = old.EntryHandle // replace, keeping the handle
	} else if t.capacity > 0 && int(t.count.Load()) >= t.capacity {
		return 0, fmt.Errorf("%w: %d entries", ErrFull, t.capacity)
	} else {
		leaf.EntryHandle = t.handles.next()
		t.count.Add(1)
	}
	t.handles.put(leaf)
	if leaf.plen%4 != 0 {
		t.short[leaf.lpmPrefix] = leaf
	}
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
	leaf := t.handles.get(handle)
	if leaf == nil {
		return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
	}
	t.handles.release(handle)
	delete(t.short, leaf.lpmPrefix)
	t.count.Add(-1)
	if leaf.plen == 0 {
		t.def.Store(nil)
		return nil
	}
	var buf [32]*lpmNode
	path := t.walk(&leaf.lpmPrefix, buf[:0])
	// The slots the leaf held fall to the longest shorter prefix of its
	// band, which covers every one of them; being shorter than the band's
	// longest, it is in short.
	var next *lpmLeaf
	for plen := leaf.plen - 1; next == nil && plen > 4*(len(path)-1); plen-- {
		next = t.short[prefixOf(leaf.key[:], plen)]
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
	nbytes := (t.width + 7) / 8
	t.mu.Lock()
	out := make([]Entry, 0, t.Len())
	t.handles.each(func(l *lpmLeaf) {
		out = append(out, Entry{Key: append([]byte(nil), l.key[:nbytes]...), PrefixLen: l.plen, ActionID: l.ActionID,
			Params: append([]uint64(nil), l.Params...), Handle: l.EntryHandle})
	})
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}
