package match

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// exactEngine is a hash-table exact-match engine, the software model of an
// SRAM exact-match table that is written in place: one flat power-of-two
// slot array with linear probing rather than a Go map, so that the bucket
// a key hashes to is one addressable cache line.
//
// Lookups are wait-free and take no lock; writers serialise on mu and
// touch only the slots of the key they write. Why that is safe
// (docs/ARCHITECTURE.md has the long form): an entry is immutable once a
// slot points at it and carries its own key, so a reader checks whatever
// pointer it loads against the key it asked for; insert stores the entry
// then the tag, replace swaps the pointer, delete stores the tombstone
// tag then clears the pointer, so a reader sees the state before or after
// the write; no slot goes back to empty in place, so the probe chain to a
// key that is not being written never breaks; and a rebuild fills a fresh
// array and publishes it with one pointer store, leaving the old one,
// which late readers may still be probing, to Go's GC. The selector
// engine keeps its groups in the same slot array (slotIndex). Delete
// finds an entry through the versioned handle table it shares with the
// LPM and selector engines (handles.go), one pointer per entry.
type exactEngine struct {
	mu       sync.Mutex // serialises writers; readers never take it
	width    int
	capacity int
	slotIndex[exactEnt, *exactEnt]
	handles handleTable[*exactEnt] // Delete's index, guarded by mu
}

// Slot tags: empty terminates a probe chain, a tombstone does not; any
// other value is the key's hash with bit 1 forced, which the probe checks
// before it follows the entry pointer, so a miss run costs one word a slot.
const (
	tagEmpty = 0
	tagTomb  = 1
)

// slot is one open-addressing bucket, 16 bytes: four to a cache line.
type slot[E any] struct {
	tag atomic.Uint64
	ent atomic.Pointer[E]
}

// slotTab is one slot array. At most half of it is ever in use (entries
// plus tombstones), so probes stay short.
type slotTab[E any] struct {
	slots []slot[E]
	mask  uint64
}

func (t *slotTab[E]) home(tag uint64) uint64 { return tag >> 2 & t.mask }

// newSlotTab sizes an array for n entries at no more than a third full,
// 8 slots at least. It grows with the entries, not to the declared
// capacity: most tables hold far fewer than they are declared deep. A
// third, not the half that triggers a rebuild, so that every rebuild buys
// at least size/6 further writes.
func newSlotTab[E any](n int) *slotTab[E] {
	size := 8
	for size < 3*n {
		size <<= 1
	}
	return &slotTab[E]{slots: make([]slot[E], size), mask: uint64(size - 1)}
}

// free returns the empty slot ending tag's probe chain.
func (t *slotTab[E]) free(tag uint64) *slot[E] {
	i := t.home(tag)
	for t.slots[i].tag.Load() != tagEmpty {
		i = (i + 1) & t.mask
	}
	return &t.slots[i]
}

// slotKey is what a slot's entry is found by: KeyWord of its key, and the
// key itself when it is wider than a word.
type slotKey struct {
	word uint64 // KeyWord's word: the key itself when it fits
	key  string // keys wider than 8 bytes only
}

func newSlotKey(key []byte) slotKey {
	k := slotKey{word: KeyWord(key)}
	if len(key) > 8 {
		k.key = string(key)
	}
	return k
}

// is reports whether k is key, which the caller has checked to be of the
// engine's key length: equal words are equal keys unless k is wide.
func (k *slotKey) is(word uint64, key []byte) bool {
	return k.word == word && (k.key == "" || k.key == string(key))
}

// bytes returns k as a widthBits-bit key (a fresh slice).
func (k *slotKey) bytes(widthBits int) []byte {
	if widthBits > 64 {
		return []byte(k.key)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k.word)
	return append([]byte(nil), b[8-(widthBits+7)/8:]...)
}

// keyed is what a slot array holds: a pointer to an entry that is never
// written after a slot points at it and that carries its own key.
type keyed[E any] interface {
	*E
	is(word uint64, key []byte) bool
}

// slotIndex is a slot array and its writer's bookkeeping, which the
// engine's writer lock guards; readers load tab, and keys for Len. Each
// engine writes the reader's probe out over tab, so that the key compare
// inlines.
type slotIndex[E any, P keyed[E]] struct {
	tab      atomic.Pointer[slotTab[E]]
	keys     atomic.Int64 // keys in tab
	tombs    int          // tombstones in tab
	rebuilds int          // slot arrays built after the first
}

func (ix *slotIndex[E, P]) init() { ix.tab.Store(newSlotTab[E](0)) }

// find probes for key on the writer's side: the slot holding it and its
// entry, or else the slot an insert should take — the first tombstone on
// the chain if there is one, the empty slot ending it otherwise — and nil.
func (ix *slotIndex[E, P]) find(word uint64, key []byte) (*slot[E], P) {
	t := ix.tab.Load()
	tag := slotTag(word)
	var free *slot[E]
	for i := t.home(tag); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch g := s.tag.Load(); {
		case g == tag:
			if x := P(s.ent.Load()); x.is(word, key) {
				return s, x
			}
		case g <= tagTomb:
			if free == nil {
				free = s
			}
			if g == tagEmpty {
				return free, nil
			}
		}
	}
}

// add publishes x, whose key (of word word) find did not find, at s, the
// slot find returned for it, rebuilding the array first when the entry
// would take it past half full.
func (ix *slotIndex[E, P]) add(s *slot[E], word uint64, x P) {
	tag := slotTag(word)
	switch {
	case s.tag.Load() == tagTomb:
		ix.tombs--
	case 2*(int(ix.keys.Load())+ix.tombs+1) > len(ix.tab.Load().slots):
		s = ix.rebuild(int(ix.keys.Load()) + 1).free(tag)
	}
	s.ent.Store((*E)(x))
	s.tag.Store(tag)
	ix.keys.Add(1)
}

// clear tombstones s, a slot holding a key.
func (ix *slotIndex[E, P]) clear(s *slot[E]) {
	s.tag.Store(tagTomb)
	s.ent.Store(nil)
	ix.tombs++
	ix.keys.Add(-1)
}

// rebuild moves the live entries to a fresh array sized for n, leaving the
// tombstones behind, and publishes it.
func (ix *slotIndex[E, P]) rebuild(n int) *slotTab[E] {
	old, t := ix.tab.Load(), newSlotTab[E](n)
	for i := range old.slots {
		tag := old.slots[i].tag.Load()
		if tag <= tagTomb {
			continue
		}
		s := t.free(tag)
		s.ent.Store(old.slots[i].ent.Load())
		s.tag.Store(tag)
	}
	ix.tombs = 0
	ix.rebuilds++
	ix.tab.Store(t)
	return t
}

// exactEnt is what a slot points at: one 64-byte line holding the key and
// the lookup result, never written after publication.
type exactEnt struct {
	slotKey
	res Result
}

func (x *exactEnt) handle() int { return x.res.EntryHandle }

func newExact(widthBits, capacity int) *exactEngine {
	e := &exactEngine{width: widthBits, capacity: capacity}
	e.init()
	return e
}

func (e *exactEngine) Kind() Kind    { return Exact }
func (e *exactEngine) KeyWidth() int { return e.width }

// mix64 is a two-round multiply-xorshift finaliser: every input bit
// reaches the low bits that pick the bucket. Cheap and stateless; the
// control plane chooses exact-match keys, not an adversary on the wire
// (header bits only select among installed keys).
func mix64(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	return x ^ x>>32
}

// KeyWord returns the word a key is hashed and compared by, and the form
// in which LookupWord takes it. A key of up to 8 bytes (every exact key the
// shipped designs use) is that word, big-endian, so equal words are equal
// keys of one length; a wider key folds its leading 8-byte chunks into the
// word as a hash and is then compared bytewise as well.
func KeyWord(key []byte) (word uint64) {
	var h uint64
	for ; len(key) > 8; key = key[8:] {
		h = mix64(h ^ binary.BigEndian.Uint64(key))
	}
	for _, b := range key {
		word = word<<8 | uint64(b)
	}
	return word ^ h
}

// slotTag is the hash of an entry's word with bit 1 forced, so that it is
// neither tagEmpty nor tagTomb.
func slotTag(word uint64) uint64 { return mix64(word) | 2 }

func (e *exactEngine) Lookup(key []byte) (Result, bool) {
	if !keyLenOK(key, e.width) {
		return Result{}, false
	}
	if r := e.probe(KeyWord(key), key); r != nil {
		return *r, true
	}
	return Result{}, false
}

// LookupWord is Lookup for a key that fits a register: word is the key's
// (width+7)/8 big-endian bytes, tail padding zero (KeyWord of the byte
// key). nil is a miss — always, on an engine whose keys are wider than 64
// bits. The Result is the published entry's own: read-only, and valid
// forever, because an entry is never written after a slot points at it (a
// replace installs a new one).
func (e *exactEngine) LookupWord(word uint64) *Result { return e.probe(word, nil) }

// probe is the one reader-side probe loop; key is nil on the word path.
func (e *exactEngine) probe(word uint64, key []byte) *Result {
	t := e.tab.Load()
	tag := slotTag(word)
	for i := t.home(tag); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.tag.Load() {
		case tag:
			if x := s.ent.Load(); x != nil && x.is(word, key) {
				return &x.res
			}
		case tagEmpty:
			return nil
		}
	}
}

func (e *exactEngine) Insert(ent Entry) (int, error) {
	if err := checkKeyLen(ent.Key, e.width); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	x := &exactEnt{slotKey: newSlotKey(ent.Key), res: Result{ActionID: ent.ActionID, Params: append([]uint64(nil), ent.Params...)}}
	s, prev := e.find(x.word, ent.Key)
	switch {
	case prev != nil:
		// Replace, keeping the handle: one pointer swap.
		x.res.EntryHandle = prev.res.EntryHandle
		s.ent.Store(x)
	case e.capacity > 0 && e.Len() >= e.capacity:
		return 0, fmt.Errorf("%w: %d entries", ErrFull, e.capacity)
	default:
		x.res.EntryHandle = e.handles.next()
		e.add(s, x.word, x)
	}
	e.handles.put(x)
	return x.res.EntryHandle, nil
}

func (e *exactEngine) Delete(handle int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	x := e.handles.get(handle)
	if x == nil {
		return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
	}
	e.handles.release(handle)
	s, _ := e.find(x.word, []byte(x.key))
	e.clear(s)
	return nil
}

func (e *exactEngine) Len() int { return int(e.keys.Load()) }

func (e *exactEngine) Entries() []Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return entriesOf(&e.handles, e.width)
}

// entriesOf returns the entries of a handle table of widthBits-bit keys
// sorted by handle, so dumps are stable.
func entriesOf(h *handleTable[*exactEnt], widthBits int) []Entry {
	var out []Entry
	h.each(func(x *exactEnt) {
		out = append(out, Entry{Key: x.bytes(widthBits), ActionID: x.res.ActionID,
			Params: append([]uint64(nil), x.res.Params...), Handle: x.res.EntryHandle})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}
