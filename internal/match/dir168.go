package match

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// dir168 is a DIR-24-8-style longest-prefix-match engine scaled to
// 16+8+8: a 2^16 first-level table resolves prefixes up to /16 in one
// probe, with on-demand 256-slot second- and third-level blocks for
// /17–/24 and /25–/32. Lookups are one to three array probes — the
// standard software fast path for IPv4 FIBs — while a shadow binary trie
// remains the source of truth for updates, handles and snapshots.
// match.New selects it automatically for 32-bit LPM tables;
// TestDIR168MatchesTrie differentially validates it against the trie.
//
// Lookups are lock-free. Every directory slot is an atomically published
// pointer to an immutable dirSlot (nil = empty), and the block maps are
// an immutable pair swapped by pointer when a block appears or retires —
// the software analogue of per-entry shadow writes into lookup SRAM.
// Writers serialise on mu; a multi-slot update (a short prefix covering a
// slot range) publishes slot by slot, so a concurrent reader sees each
// address flip from old route to new route individually, never a torn
// slot. All covered slots of one insert share a single dirSlot value.
type dir168 struct {
	mu   sync.Mutex // serialises writers; readers never take it
	trie *lpmTrie

	l1   []atomic.Pointer[dirSlot] // indexed by the top 16 bits
	maps atomic.Pointer[dirMaps]
}

// dirMaps is the immutable published pair of block maps. Cloned (cheaply:
// it holds block pointers, not blocks) only when the block set changes.
type dirMaps struct {
	l2 map[uint32]*dirBlock // key: top 16 bits
	l3 map[uint32]*dirBlock // key: top 24 bits
}

// dirSlot is immutable once published, which is what lets LookupWord hand
// out a pointer to its Result.
type dirSlot struct {
	Result
	plen int8
}

type dirBlock struct {
	used  int // writer-side population count, guarded by dir168.mu
	slots [256]atomic.Pointer[dirSlot]
}

func newDIR168(capacity int) *dir168 {
	d := &dir168{
		trie: newLPMTrie(32, capacity),
		l1:   make([]atomic.Pointer[dirSlot], 1<<16),
	}
	d.maps.Store(&dirMaps{l2: map[uint32]*dirBlock{}, l3: map[uint32]*dirBlock{}})
	return d
}

func (d *dir168) Kind() Kind    { return LPM }
func (d *dir168) KeyWidth() int { return 32 }

func (d *dir168) Lookup(key []byte) (Result, bool) {
	if !keyLenOK(key, 32) {
		return Result{}, false
	}
	if r := d.LookupWord(uint64(binary.BigEndian.Uint32(key))); r != nil {
		return *r, true
	}
	return Result{}, false
}

// LookupWord is Lookup with the address as a word (its low 32 bits; the
// key's four big-endian bytes). nil is a miss. The Result belongs to the
// published slot: read-only, and valid forever, because a slot is never
// written after a directory entry points at it (writers publish new ones).
func (d *dir168) LookupWord(word uint64) *Result {
	k := uint32(word)
	m := d.maps.Load()
	if b, ok := m.l3[k>>8]; ok {
		if s := b.slots[k&0xff].Load(); s != nil {
			return &s.Result
		}
	}
	if b, ok := m.l2[k>>16]; ok {
		if s := b.slots[(k>>8)&0xff].Load(); s != nil {
			return &s.Result
		}
	}
	if s := d.l1[k>>16].Load(); s != nil {
		return &s.Result
	}
	return nil
}

// level buckets a prefix length: 1 for /0–/16, 2 for /17–/24, 3 else.
func dirLevel(plen int) int {
	switch {
	case plen <= 16:
		return 1
	case plen <= 24:
		return 2
	default:
		return 3
	}
}

// block returns the block for key, growing the published map pair by one
// cloned map when the block does not exist yet. A new block is visible to
// readers immediately but empty until slots are stored into it.
func (d *dir168) block(level int, key uint32) *dirBlock {
	cur := d.maps.Load()
	m := cur.l2
	if level == 3 {
		m = cur.l3
	}
	if b, ok := m[key]; ok {
		return b
	}
	b := &dirBlock{}
	nm := make(map[uint32]*dirBlock, len(m)+1)
	for k, v := range m {
		nm[k] = v
	}
	nm[key] = b
	next := &dirMaps{l2: cur.l2, l3: cur.l3}
	if level == 3 {
		next.l3 = nm
	} else {
		next.l2 = nm
	}
	d.maps.Store(next)
	return b
}

// dropBlock unpublishes an empty block. Readers still holding the
// previous map pair keep probing it, but every slot is already nil.
func (d *dir168) dropBlock(level int, key uint32) {
	cur := d.maps.Load()
	m := cur.l2
	if level == 3 {
		m = cur.l3
	}
	nm := make(map[uint32]*dirBlock, len(m))
	for k, v := range m {
		if k != key {
			nm[k] = v
		}
	}
	next := &dirMaps{l2: cur.l2, l3: cur.l3}
	if level == 3 {
		next.l3 = nm
	} else {
		next.l2 = nm
	}
	d.maps.Store(next)
}

func (d *dir168) Insert(e Entry) (int, error) {
	if err := checkKeyLen(e.Key, 32); err != nil {
		return 0, err
	}
	if e.PrefixLen < 0 || e.PrefixLen > 32 {
		return 0, fmt.Errorf("match: prefix length %d out of range [0,32]", e.PrefixLen)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	handle, err := d.trie.Insert(e)
	if err != nil {
		return 0, err
	}
	k := binary.BigEndian.Uint32(e.Key)
	slot := &dirSlot{
		Result: Result{ActionID: e.ActionID, Params: append([]uint64(nil), e.Params...), EntryHandle: handle},
		plen:   int8(e.PrefixLen),
	}
	// An insert can only improve covered slots at its own level: replace
	// when the new prefix is at least as long as the incumbent.
	switch dirLevel(e.PrefixLen) {
	case 1:
		lo := k >> 16
		n := uint32(1) << uint(16-e.PrefixLen)
		for i := uint32(0); i < n; i++ {
			if s := d.l1[lo+i].Load(); s == nil || s.plen <= slot.plen {
				d.l1[lo+i].Store(slot)
			}
		}
	case 2:
		b := d.block(2, k>>16)
		lo := (k >> 8) & 0xff
		n := uint32(1) << uint(24-e.PrefixLen)
		for i := uint32(0); i < n; i++ {
			if s := b.slots[lo+i].Load(); s == nil || s.plen <= slot.plen {
				if s == nil {
					b.used++
				}
				b.slots[lo+i].Store(slot)
			}
		}
	case 3:
		b := d.block(3, k>>8)
		lo := k & 0xff
		n := uint32(1) << uint(32-e.PrefixLen)
		for i := uint32(0); i < n; i++ {
			if s := b.slots[lo+i].Load(); s == nil || s.plen <= slot.plen {
				if s == nil {
					b.used++
				}
				b.slots[lo+i].Store(slot)
			}
		}
	}
	return handle, nil
}

func (d *dir168) Delete(handle int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.trie.EntryByHandle(handle)
	if !ok {
		return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
	}
	if err := d.trie.Delete(handle); err != nil {
		return err
	}
	// Recompute every slot the removed prefix covered from the trie,
	// restricted to the slot's level band. Slots resolving to the same
	// surviving prefix share one recomputed dirSlot (memo by handle).
	memo := make(map[int]*dirSlot)
	k := binary.BigEndian.Uint32(ent.Key)
	switch dirLevel(ent.PrefixLen) {
	case 1:
		lo := k >> 16
		n := uint32(1) << uint(16-ent.PrefixLen)
		for i := uint32(0); i < n; i++ {
			d.l1[lo+i].Store(d.recompute((lo+i)<<16, 0, 16, memo))
		}
	case 2:
		if b, bok := d.maps.Load().l2[k>>16]; bok {
			lo := (k >> 8) & 0xff
			n := uint32(1) << uint(24-ent.PrefixLen)
			for i := uint32(0); i < n; i++ {
				was := b.slots[lo+i].Load()
				now := d.recompute((k>>16)<<16|(lo+i)<<8, 17, 24, memo)
				b.slots[lo+i].Store(now)
				if was != nil && now == nil {
					b.used--
				}
			}
			if b.used == 0 {
				d.dropBlock(2, k>>16)
			}
		}
	case 3:
		if b, bok := d.maps.Load().l3[k>>8]; bok {
			lo := k & 0xff
			n := uint32(1) << uint(32-ent.PrefixLen)
			for i := uint32(0); i < n; i++ {
				was := b.slots[lo+i].Load()
				now := d.recompute((k>>8)<<8|(lo+i), 25, 32, memo)
				b.slots[lo+i].Store(now)
				if was != nil && now == nil {
					b.used--
				}
			}
			if b.used == 0 {
				d.dropBlock(3, k>>8)
			}
		}
	}
	return nil
}

// recompute asks the trie for the best prefix matching addr whose length
// lies in [loPlen, hiPlen]; nil means no surviving prefix covers addr.
func (d *dir168) recompute(addr uint32, loPlen, hiPlen int, memo map[int]*dirSlot) *dirSlot {
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], addr)
	e, ok := d.trie.lookupRange(key[:], loPlen, hiPlen)
	if !ok {
		return nil
	}
	if s, hit := memo[e.Handle]; hit {
		return s
	}
	s := &dirSlot{
		Result: Result{ActionID: e.ActionID, Params: e.Params, EntryHandle: e.Handle},
		plen:   int8(e.PrefixLen),
	}
	memo[e.Handle] = s
	return s
}

func (d *dir168) Len() int {
	return d.trie.Len()
}

func (d *dir168) Entries() []Entry {
	return d.trie.Entries()
}
