package match

import "math/bits"

// handleTable is the writer's index from entry handle to entry, shared by
// the exact, LPM and selector engines: a dense slice of entries indexed by the
// handle's low bits, plus a LIFO list of released indexes. The bits above
// hold the index's generation, which advances each time the index is
// reused (BMv2 versions its entry handles the same way), so a handle that
// outlived its entry names nothing rather than the entry that took its
// index. An index's first use is generation 0: a table that never deletes
// hands out 0, 1, 2, …. It costs one pointer per entry ever live at once,
// against a map's buckets. Not safe for concurrent use; the engine's
// writer lock guards it.
type handleTable[E handled] struct {
	ents []E   // by index; the zero E where the index is free
	free []int // released indexes, each as the handle its next use gets
}

// handled is an engine's entry type: a pointer that knows its handle.
type handled interface {
	comparable
	handle() int
}

// A handle is a non-negative int: the index in the low handleIndexBits,
// the generation above. With 64-bit ints that is 32 bits of index and 20
// of generation, so every handle is below 2^52 and exact in a float64,
// the number type of JSON clients that have one; with 32-bit ints, 24 and
// 7. Generations wrap.
const (
	handleIndexBits = 16 + bits.UintSize/4
	handleIndexMask = 1<<handleIndexBits - 1
	handleGenMask   = 1<<min(20, bits.UintSize-1-handleIndexBits) - 1
)

// next returns the handle for a new entry, reusing the most recently
// released index. The caller puts the entry under it before the next call.
func (t *handleTable[E]) next() int {
	if n := len(t.free); n > 0 {
		h := t.free[n-1]
		t.free = t.free[:n-1]
		return h
	}
	var none E
	t.ents = append(t.ents, none)
	return len(t.ents) - 1
}

// put files x under its handle, which next returned or which x replaces.
func (t *handleTable[E]) put(x E) { t.ents[x.handle()&handleIndexMask] = x }

// get returns the entry h names, or the zero E for a handle that is
// negative, was never handed out, or is stale: released, its index since
// reused or free.
func (t *handleTable[E]) get(h int) E {
	var none E
	if h < 0 || h&handleIndexMask >= len(t.ents) {
		return none
	}
	if x := t.ents[h&handleIndexMask]; x != none && x.handle() == h {
		return x
	}
	return none
}

// release frees the index of h, a handle get has just returned an entry
// for; the index's next use is the following generation.
func (t *handleTable[E]) release(h int) {
	var none E
	i := h & handleIndexMask
	t.ents[i] = none
	gen := (h>>handleIndexBits + 1) & handleGenMask
	t.free = append(t.free, gen<<handleIndexBits|i)
}

// each calls f on every entry, in index order.
func (t *handleTable[E]) each(f func(E)) {
	var none E
	for _, x := range t.ents {
		if x != none {
			f(x)
		}
	}
}
