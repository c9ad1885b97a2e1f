package match

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// lpmRef is the linear-scan reference the LPM engine is held to: a list
// of prefixes in handle order, matched bit by bit.
type lpmRef struct {
	width, capacity, next int
	ents                  []refPrefix
}

type refPrefix struct {
	key          []byte
	plen, handle int
	act          int
}

func bitOf(key []byte, i int) byte { return key[i/8] >> uint(7-i%8) & 1 }

// covers reports whether the first plen bits of a and b agree.
func covers(a, b []byte, plen int) bool {
	for i := 0; i < plen; i++ {
		if bitOf(a, i) != bitOf(b, i) {
			return false
		}
	}
	return true
}

// masked is key with every bit from plen on zero.
func masked(key []byte, plen int) []byte {
	out := make([]byte, len(key))
	for i := 0; i < plen; i++ {
		out[i/8] |= bitOf(key, i) << uint(7-i%8)
	}
	return out
}

func (r *lpmRef) find(key []byte, plen int) int {
	for i, p := range r.ents {
		if p.plen == plen && covers(p.key, key, plen) {
			return i
		}
	}
	return -1
}

// insert mirrors Engine.Insert: the handle, or full for ErrFull.
func (r *lpmRef) insert(key []byte, plen, act int) (handle int, full bool) {
	if i := r.find(key, plen); i >= 0 {
		r.ents[i].act = act
		return r.ents[i].handle, false
	}
	if r.capacity > 0 && len(r.ents) >= r.capacity {
		return 0, true
	}
	r.ents = append(r.ents, refPrefix{key: masked(key, plen), plen: plen, handle: r.next, act: act})
	r.next++
	return r.next - 1, false
}

func (r *lpmRef) lookup(key []byte) *refPrefix {
	var best *refPrefix
	for i := range r.ents {
		if p := &r.ents[i]; (best == nil || p.plen > best.plen) && covers(p.key, key, p.plen) {
			best = p
		}
	}
	return best
}

// lpmDiff drives an engine and the reference through the same ops and
// fails at the first disagreement. The reference numbers its prefixes
// 0, 1, 2, …; the engine reuses the indexes of deleted entries under a
// new generation, so the diff maps each reference handle to the engine's.
type lpmDiff struct {
	t      testing.TB
	e      *lpmEngine
	ref    lpmRef
	handle map[int]int // reference handle -> engine handle, live entries
}

func newLPMDiff(t testing.TB, width, capacity int) *lpmDiff {
	return &lpmDiff{t: t, e: newLPM(width, capacity), ref: lpmRef{width: width, capacity: capacity}, handle: map[int]int{}}
}

func (d *lpmDiff) insert(key []byte, plen, act int) {
	d.t.Helper()
	h, err := d.e.Insert(Entry{Key: key, PrefixLen: plen, ActionID: act, Params: []uint64{uint64(act)}})
	wh, full := d.ref.insert(key, plen, act)
	eh, replaced := d.handle[wh]
	switch {
	case full && !errors.Is(err, ErrFull):
		d.t.Fatalf("insert %x/%d past capacity: %v", key, plen, err)
	case full:
	case err != nil:
		d.t.Fatalf("insert %x/%d: %v", key, plen, err)
	case replaced && h != eh:
		d.t.Fatalf("replace %x/%d: handle %d, want %d", key, plen, h, eh)
	case !replaced:
		for rh, other := range d.handle {
			if other == h {
				d.t.Fatalf("insert %x/%d: handle %d, already the handle of reference entry %d", key, plen, h, rh)
			}
		}
		d.handle[wh] = h
	}
	d.checkLen()
}

func (d *lpmDiff) delete(i int) {
	d.t.Helper()
	h := d.handle[d.ref.ents[i].handle]
	delete(d.handle, d.ref.ents[i].handle)
	d.ref.ents = append(d.ref.ents[:i], d.ref.ents[i+1:]...)
	if err := d.e.Delete(h); err != nil {
		d.t.Fatalf("delete %d: %v", h, err)
	}
	if err := d.e.Delete(h); !errors.Is(err, ErrNoEntry) {
		d.t.Fatalf("double delete %d: %v", h, err)
	}
	d.checkLen()
}

func (d *lpmDiff) lookup(key []byte) {
	d.t.Helper()
	r, ok := d.e.Lookup(key)
	w := d.ref.lookup(key)
	if ok != (w != nil) || ok && (r.EntryHandle != d.handle[w.handle] || r.ActionID != w.act || len(r.Params) != 1 || r.Params[0] != uint64(w.act)) {
		d.t.Fatalf("%d-bit lookup %x: %+v,%v, reference %+v", d.ref.width, key, r, ok, w)
	}
	if d.ref.width > 64 {
		return
	}
	if rw := d.e.LookupWord(KeyWord(key)); (rw != nil) != ok || ok && (rw.EntryHandle != r.EntryHandle || rw.ActionID != r.ActionID || rw.Params[0] != r.Params[0]) {
		d.t.Fatalf("%d-bit word lookup %x: %+v, byte lookup %+v,%v", d.ref.width, key, rw, r, ok)
	}
}

func (d *lpmDiff) checkLen() {
	d.t.Helper()
	if d.e.Len() != len(d.ref.ents) {
		d.t.Fatalf("Len = %d, reference holds %d", d.e.Len(), len(d.ref.ents))
	}
}

// checkEntries compares Entries with the reference's prefixes in engine
// handle order, and checks that the prefix index holds exactly the
// prefixes whose length is not a multiple of 4.
func (d *lpmDiff) checkEntries() {
	d.t.Helper()
	got := d.e.Entries()
	if len(got) != len(d.ref.ents) {
		d.t.Fatalf("Entries: %d, reference holds %d", len(got), len(d.ref.ents))
	}
	want := append([]refPrefix(nil), d.ref.ents...)
	sort.Slice(want, func(i, j int) bool { return d.handle[want[i].handle] < d.handle[want[j].handle] })
	short := 0
	for i, w := range want {
		g := got[i]
		if g.Handle != d.handle[w.handle] || g.PrefixLen != w.plen || !bytes.Equal(g.Key, w.key) || g.ActionID != w.act || len(g.Params) != 1 || g.Params[0] != uint64(w.act) {
			d.t.Fatalf("Entries[%d] = %+v, reference %+v (engine handle %d)", i, g, w, d.handle[w.handle])
		}
		if w.plen%4 != 0 {
			short++
		}
	}
	for p := range d.e.short {
		if p.plen%4 == 0 {
			d.t.Fatalf("prefix index holds a /%d", p.plen)
		}
	}
	if len(d.e.short) != short {
		d.t.Fatalf("prefix index holds %d prefixes, reference %d of a length not a multiple of 4", len(d.e.short), short)
	}
}

// graft is a key whose first plen bits are base's and the rest tail's.
func graft(base []byte, plen int, tail []byte) []byte {
	out := append([]byte(nil), tail...)
	for i := 0; i < plen; i++ {
		out[i/8] = out[i/8]&^(1<<uint(7-i%8)) | bitOf(base, i)<<uint(7-i%8)
	}
	return out
}

// run decodes ops as a stream of one opcode byte, one argument byte and
// a key's worth of bytes each, until the stream runs short. The opcodes
// insert a prefix of the key; insert one nested under (or above) an
// installed prefix; replace an installed prefix, with other bits past its
// length; delete one; and look up the key, or a key inside an installed
// prefix.
func (d *lpmDiff) run(ops []byte) {
	nbytes := (d.ref.width + 7) / 8
	for n := 0; len(ops) >= 2+nbytes; n++ {
		op, arg, key := ops[0], int(ops[1]), append([]byte(nil), ops[2:2+nbytes]...)
		ops = ops[2+nbytes:]
		var in *refPrefix
		if len(d.ref.ents) > 0 {
			in = &d.ref.ents[arg%len(d.ref.ents)]
		}
		switch op % 5 {
		case 0:
			d.insert(key, arg%(d.ref.width+1), n+1)
		case 1, 2:
			if in == nil {
				continue
			}
			plen := in.plen
			if op%5 == 1 {
				plen = int(key[0]) % (d.ref.width + 1)
			}
			d.insert(graft(in.key, in.plen, key), plen, n+1)
		case 3:
			if in == nil {
				continue
			}
			d.delete(arg % len(d.ref.ents))
		case 4:
			if in != nil && arg&1 == 1 {
				key = graft(in.key, in.plen, key)
			}
			d.lookup(key)
		}
		if n%16 == 15 {
			d.checkEntries()
		}
	}
	d.checkEntries()
	// Emptied, the trie is one empty root: every node a delete left
	// empty was unlinked.
	for len(d.ref.ents) > 0 {
		d.delete(len(d.ref.ents) / 2)
	}
	if !d.e.root.empty() || d.e.def.Load() != nil {
		d.t.Fatalf("%d-bit engine emptied, but its root still holds nodes or routes", d.ref.width)
	}
}

// lpmFuzzWidths are the widths FuzzLPM runs at: IPv4, one that is not a
// byte multiple, IPv6.
var lpmFuzzWidths = []int{32, 20, 128}

// FuzzLPM holds the engine to the linear-scan reference. The first byte
// picks the width and a capacity (none, or 4, 8 or 12 entries); the rest
// is the op stream lpmDiff.run decodes, cut at 2 KB because the reference
// is quadratic. Handles, lookups, Len and Entries must agree, and at
// widths of at most 64 bits the word probe must agree with the byte
// probe.
func FuzzLPM(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for cfg := 0; cfg < 12; cfg++ {
		ops := make([]byte, 64*18)
		rng.Read(ops)
		f.Add(append([]byte{byte(cfg)}, ops...))
	}
	// A default route, a /8 and a /12 under it, then the /8 deleted.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 8, 10, 0, 0, 0, 0, 12, 10, 16, 0, 0, 3, 1, 0, 0, 0, 0, 4, 0, 10, 17, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		d := newLPMDiff(t, lpmFuzzWidths[int(data[0])%3], 4*(int(data[0])/3%4))
		d.run(data[1:])
	})
}

// TestLPMMatchesReference runs long random op streams through lpmDiff at
// widths 32 and 128, while a second goroutine probes the engine — by word
// at 32 bits, by bytes at 128 — and reads through every result it gets as
// the slots it came from are rewritten (run it under -race).
func TestLPMMatchesReference(t *testing.T) {
	for _, width := range []int{32, 128} {
		lpmMatchesReference(t, width)
	}
}

func lpmMatchesReference(t *testing.T, width int) {
	d := newLPMDiff(t, width, 0)
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		key := make([]byte, width/8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rng.Read(key)
			var r *Result
			if width <= 64 {
				r = d.e.LookupWord(KeyWord(key))
			} else if res, ok := d.e.Lookup(key); ok {
				r = &res
			}
			if r != nil && (len(r.Params) != 1 || r.Params[0] != uint64(r.ActionID)) {
				t.Errorf("%d-bit probe beside writers: torn result %+v", width, *r)
				return
			}
		}
	}()
	ops := make([]byte, 6000*(2+width/8))
	rand.New(rand.NewSource(99)).Read(ops)
	d.run(ops)
}

func TestLPMBasics(t *testing.T) {
	for _, width := range []int{32, 128} {
		e, err := New(LPM, width, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.(*lpmEngine); !ok || e.Kind() != LPM || e.KeyWidth() != width {
			t.Fatalf("%d-bit LPM engine is %T, kind %v, width %d", width, e, e.Kind(), e.KeyWidth())
		}
		key := func(b byte) []byte { return append([]byte{b}, make([]byte, width/8-1)...) }
		for i := 0; i < 4; i++ {
			if _, err := e.Insert(Entry{Key: key(byte(i)), PrefixLen: 8, ActionID: i + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Insert(Entry{Key: key(0xF0), PrefixLen: 8}); !errors.Is(err, ErrFull) {
			t.Errorf("full insert: %v", err)
		}
		if _, err := e.Insert(Entry{Key: key(0), PrefixLen: width + 1}); err == nil {
			t.Error("bad prefix accepted")
		}
		if err := e.Delete(12345); !errors.Is(err, ErrNoEntry) {
			t.Errorf("ghost delete: %v", err)
		}
		if got := len(e.Entries()); got != 4 {
			t.Errorf("entries = %d", got)
		}
	}
	// The leaf holds its key inline: 128 bits is the widest an LPM table
	// can be.
	for _, width := range []int{129, 256} {
		if _, err := New(LPM, width, 0); err == nil {
			t.Errorf("%d-bit LPM engine built", width)
		}
	}
	if n, l := unsafe.Sizeof(lpmNode{}), unsafe.Sizeof(lpmLeaf{}); n != 256 || l != 64 {
		t.Errorf("lpmNode is %d bytes, lpmLeaf %d; want 256 and 64", n, l)
	}
}

// TestLPMInsertAllocsFlat pins that a new prefix costs the same
// allocations in an engine holding 1k prefixes as in one holding 64k: no
// structure is copied or grown in proportion to the table. Every insert
// lands in a /24 of its own, in a quarter of the space the fill avoids,
// so both engines build the same nodes for it.
func TestLPMInsertAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		e := newLPM(32, 0)
		for _, ent := range fibEntries(n) {
			ent.Key[0] &= 0x7f
			if _, err := e.Insert(ent); err != nil {
				t.Fatal(err)
			}
		}
		next := uint32(0xC0000000)
		return testing.AllocsPerRun(500, func() {
			if _, err := e.Insert(Entry{Key: key32(next), PrefixLen: 32, ActionID: 1, Params: []uint64{1}}); err != nil {
				t.Fatal(err)
			}
			next += 0x100
		})
	}
	if small, large := allocs(1<<10), allocs(1<<16); small != large {
		t.Errorf("allocations per insert: %v at 1k prefixes, %v at 64k", small, large)
	}
}
