package match

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func key32(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Exact, LPM, Ternary, Range, Hash} {
		s := k.String()
		got, err := ParseKind(s)
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind has empty String")
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(Exact, 0, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(Kind(42), 32, 0); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestExactBasic(t *testing.T) {
	e, err := New(Exact, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind() != Exact || e.KeyWidth() != 32 {
		t.Errorf("kind/width = %v/%d", e.Kind(), e.KeyWidth())
	}
	h1, err := e.Insert(Entry{Key: key32(1), ActionID: 10, Params: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(Entry{Key: key32(2), ActionID: 20}); err != nil {
		t.Fatal(err)
	}
	r, ok := e.Lookup(key32(1))
	if !ok || r.ActionID != 10 || r.Params[0] != 100 || r.EntryHandle != h1 {
		t.Errorf("lookup = %+v, %v", r, ok)
	}
	if _, ok := e.Lookup(key32(3)); ok {
		t.Error("miss reported as hit")
	}
	// Replace keeps the handle.
	h1b, err := e.Insert(Entry{Key: key32(1), ActionID: 11})
	if err != nil || h1b != h1 {
		t.Errorf("replace: handle %d, err %v", h1b, err)
	}
	r, _ = e.Lookup(key32(1))
	if r.ActionID != 11 {
		t.Errorf("replace not visible: %+v", r)
	}
	// Capacity.
	if _, err := e.Insert(Entry{Key: key32(9), ActionID: 1}); !errors.Is(err, ErrFull) {
		t.Errorf("full table insert: %v", err)
	}
	// Delete.
	if err := e.Delete(h1); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(key32(1)); ok {
		t.Error("deleted entry still matches")
	}
	if err := e.Delete(h1); !errors.Is(err, ErrNoEntry) {
		t.Errorf("double delete: %v", err)
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d", e.Len())
	}
	// Wrong key size rejected.
	if _, err := e.Insert(Entry{Key: []byte{1}, ActionID: 1}); err == nil {
		t.Error("short key accepted")
	}
}

// TestStaleHandle: a handle outlives its entry without ever naming the
// entry that reuses its index. A is inserted and deleted, B takes A's
// index; deleting by A's handle again must fail and leave B installed, and
// negative and never-issued handles must fail without a panic. On the
// selector every entry is a member of a group of its own, and Lookup
// picks the group's oldest member.
func TestStaleHandle(t *testing.T) {
	for _, kind := range []Kind{Exact, LPM, Hash} {
		t.Run(kind.String(), func(t *testing.T) {
			e, err := New(kind, 32, 0)
			if err != nil {
				t.Fatal(err)
			}
			// A table that never deletes numbers its entries 0, 1, 2, ….
			for i := 0; i < 3; i++ {
				if h, err := e.Insert(Entry{Key: key32(uint32(i) << 24), PrefixLen: 8, ActionID: 1}); err != nil || h != i {
					t.Fatalf("insert %d: handle %d, %v", i, h, err)
				}
			}
			a, err := e.Insert(Entry{Key: key32(0x0A000000), PrefixLen: 8, ActionID: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(a); err != nil {
				t.Fatal(err)
			}
			bKey := key32(0x0B000000)
			b, err := e.Insert(Entry{Key: bKey, PrefixLen: 8, ActionID: 2})
			if err != nil {
				t.Fatal(err)
			}
			if b == a || b&handleIndexMask != a&handleIndexMask {
				t.Fatalf("B got handle %#x, want A's index under a new generation (A %#x)", b, a)
			}
			// -1; 2^62 (with 64-bit ints); the next index; and a generation of
			// A's index not yet reached.
			for _, h := range []int{a, -1, math.MaxInt/2 + 1, b + 1, a + 5<<handleIndexBits} {
				if err := e.Delete(h); !errors.Is(err, ErrNoEntry) {
					t.Errorf("Delete(%#x): %v, want ErrNoEntry", h, err)
				}
			}
			if r, ok := e.Lookup(bKey); !ok || r.EntryHandle != b || r.ActionID != 2 {
				t.Errorf("B after stale deletes: %+v, %v", r, ok)
			}
			ents := e.Entries()
			if e.Len() != 4 || len(ents) != 4 || ents[3].Handle != b || !bytes.Equal(ents[3].Key, bKey) {
				t.Errorf("Len %d, Entries %+v; want four, B last under %#x", e.Len(), ents, b)
			}
			if err := e.Delete(b); err != nil {
				t.Errorf("Delete(B): %v", err)
			}
		})
	}
}

func TestLPMLongestWins(t *testing.T) {
	e, err := New(LPM, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 10.0.0.0/8 -> 1, 10.1.0.0/16 -> 2, 10.1.2.0/24 -> 3, default /0 -> 99
	ins := func(a, b, c, d byte, plen, act int) int {
		h, err := e.Insert(Entry{Key: []byte{a, b, c, d}, PrefixLen: plen, ActionID: act})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ins(0, 0, 0, 0, 0, 99)
	ins(10, 0, 0, 0, 8, 1)
	h16 := ins(10, 1, 0, 0, 16, 2)
	ins(10, 1, 2, 0, 24, 3)

	cases := []struct {
		key  []byte
		want int
	}{
		{[]byte{10, 1, 2, 3}, 3},
		{[]byte{10, 1, 9, 9}, 2},
		{[]byte{10, 9, 9, 9}, 1},
		{[]byte{11, 0, 0, 1}, 99},
	}
	for _, c := range cases {
		r, ok := e.Lookup(c.key)
		if !ok || r.ActionID != c.want {
			t.Errorf("lookup %v = %+v (ok=%v), want action %d", c.key, r, ok, c.want)
		}
	}
	// Delete the /16: /8 takes over.
	if err := e.Delete(h16); err != nil {
		t.Fatal(err)
	}
	if r, _ := e.Lookup([]byte{10, 1, 9, 9}); r.ActionID != 1 {
		t.Errorf("after delete: action %d, want 1", r.ActionID)
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestLPMErrors(t *testing.T) {
	e, _ := New(LPM, 32, 1)
	if _, err := e.Insert(Entry{Key: key32(0), PrefixLen: 33}); err == nil {
		t.Error("prefix 33 accepted for 32-bit key")
	}
	if _, err := e.Insert(Entry{Key: key32(0), PrefixLen: -1}); err == nil {
		t.Error("negative prefix accepted")
	}
	if _, err := e.Insert(Entry{Key: key32(0), PrefixLen: 8, ActionID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(Entry{Key: key32(1 << 24), PrefixLen: 16}); !errors.Is(err, ErrFull) {
		t.Errorf("full trie insert: %v", err)
	}
	// Replacing the same prefix is allowed even when full.
	if _, err := e.Insert(Entry{Key: key32(0), PrefixLen: 8, ActionID: 2}); err != nil {
		t.Errorf("replace on full trie: %v", err)
	}
	if _, ok := e.Lookup([]byte{1}); ok {
		t.Error("short key matched")
	}
}

func TestLPMDefaultRoute(t *testing.T) {
	e, _ := New(LPM, 128, 0)
	zero := make([]byte, 16)
	if _, err := e.Insert(Entry{Key: zero, PrefixLen: 0, ActionID: 7}); err != nil {
		t.Fatal(err)
	}
	anyKey := make([]byte, 16)
	anyKey[0] = 0xFE
	if r, ok := e.Lookup(anyKey); !ok || r.ActionID != 7 {
		t.Errorf("default route miss: %+v, %v", r, ok)
	}
}

func TestTernaryPriority(t *testing.T) {
	e, err := New(Ternary, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Low-priority catch-all and a high-priority specific match.
	hAll, err := e.Insert(Entry{Key: []byte{0, 0}, Mask: []byte{0, 0}, Priority: 1, ActionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Insert(Entry{Key: []byte{0x12, 0x00}, Mask: []byte{0xff, 0x00}, Priority: 10, ActionID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := e.Lookup([]byte{0x12, 0x34}); r.ActionID != 2 {
		t.Errorf("high priority lost: %+v", r)
	}
	if r, _ := e.Lookup([]byte{0x99, 0x00}); r.ActionID != 1 {
		t.Errorf("catch-all lost: %+v", r)
	}
	// Equal priority: earlier insertion wins.
	_, _ = e.Insert(Entry{Key: []byte{0x12, 0x34}, Mask: []byte{0xff, 0xff}, Priority: 10, ActionID: 3})
	if r, _ := e.Lookup([]byte{0x12, 0x34}); r.ActionID != 2 {
		t.Errorf("tie-break changed winner: %+v", r)
	}
	if err := e.Delete(hAll); err != nil {
		t.Fatal(err)
	}
	if r, ok := e.Lookup([]byte{0x99, 0x00}); ok {
		t.Errorf("deleted catch-all still matches: %+v", r)
	}
	// Replace same value/mask/priority.
	h2, _ := e.Insert(Entry{Key: []byte{0x12, 0x00}, Mask: []byte{0xff, 0x00}, Priority: 10, ActionID: 9})
	if r, _ := e.Lookup([]byte{0x12, 0x55}); r.ActionID != 9 || r.EntryHandle != h2 {
		t.Errorf("in-place replace: %+v", r)
	}
	if _, err := e.Insert(Entry{Key: []byte{1, 2}, Mask: []byte{1}, Priority: 0}); err == nil {
		t.Error("short mask accepted")
	}
}

func TestRangeMatch(t *testing.T) {
	e, err := New(Range, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(lo, hi uint16, prio, act int) {
		l := []byte{byte(lo >> 8), byte(lo)}
		h := []byte{byte(hi >> 8), byte(hi)}
		if _, err := e.Insert(Entry{Key: l, High: h, Priority: prio, ActionID: act}); err != nil {
			t.Fatal(err)
		}
	}
	ins(0, 1023, 1, 1)     // well-known ports
	ins(80, 80, 10, 2)     // http overrides
	ins(1024, 65535, 1, 3) // ephemeral
	check := func(p uint16, want int) {
		r, ok := e.Lookup([]byte{byte(p >> 8), byte(p)})
		if !ok || r.ActionID != want {
			t.Errorf("port %d -> %+v (ok=%v), want %d", p, r, ok, want)
		}
	}
	check(80, 2)
	check(22, 1)
	check(8080, 3)
	if _, err := e.Insert(Entry{Key: []byte{1, 0}, High: []byte{0, 0}}); err == nil {
		t.Error("inverted range accepted")
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestRangeCapacityAndDelete(t *testing.T) {
	e, _ := New(Range, 8, 1)
	h, err := e.Insert(Entry{Key: []byte{0}, High: []byte{10}, ActionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(Entry{Key: []byte{20}, High: []byte{30}}); !errors.Is(err, ErrFull) {
		t.Errorf("full range insert: %v", err)
	}
	if err := e.Delete(h); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(h); !errors.Is(err, ErrNoEntry) {
		t.Errorf("double delete: %v", err)
	}
}

func TestEntriesSnapshot(t *testing.T) {
	for _, kind := range []Kind{Exact, LPM, Ternary, Range} {
		e, _ := New(kind, 8, 0)
		ent := Entry{Key: []byte{5}, Mask: []byte{0xff}, High: []byte{9}, PrefixLen: 8, ActionID: 4, Params: []uint64{1, 2}}
		if _, err := e.Insert(ent); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		snap := e.Entries()
		if len(snap) != 1 || snap[0].ActionID != 4 || len(snap[0].Params) != 2 {
			t.Errorf("%v: snapshot %+v", kind, snap)
		}
		// Mutating the snapshot must not affect the engine.
		snap[0].Key[0] = 99
		snap[0].Params[0] = 99
		if r, ok := e.Lookup([]byte{5}); !ok || r.Params[0] != 1 {
			t.Errorf("%v: engine mutated via snapshot: %+v, %v", kind, r, ok)
		}
	}
}

// TestLPMAgainstLinearScan cross-checks the trie against a brute-force
// longest-prefix scan on random prefixes and keys.
func TestLPMAgainstLinearScan(t *testing.T) {
	type pfx struct {
		key  uint32
		plen int
		act  int
	}
	f := func(seedPrefixes []uint32, plens []uint8, probes []uint32) bool {
		e, _ := New(LPM, 32, 0)
		var prefixes []pfx
		for i, k := range seedPrefixes {
			if i >= len(plens) {
				break
			}
			plen := int(plens[i]) % 33
			mask := uint32(0)
			if plen > 0 {
				mask = ^uint32(0) << (32 - plen)
			}
			p := pfx{key: k & mask, plen: plen, act: i + 1}
			if _, err := e.Insert(Entry{Key: key32(p.key), PrefixLen: p.plen, ActionID: p.act}); err != nil {
				return false
			}
			// Later duplicates replace earlier ones, mirror that.
			replaced := false
			for j := range prefixes {
				if prefixes[j].key == p.key && prefixes[j].plen == p.plen {
					prefixes[j].act = p.act
					replaced = true
					break
				}
			}
			if !replaced {
				prefixes = append(prefixes, p)
			}
		}
		for _, probe := range probes {
			bestLen, bestAct, found := -1, 0, false
			for _, p := range prefixes {
				mask := uint32(0)
				if p.plen > 0 {
					mask = ^uint32(0) << (32 - p.plen)
				}
				if probe&mask == p.key && p.plen > bestLen {
					bestLen, bestAct, found = p.plen, p.act, true
				}
			}
			r, ok := e.Lookup(key32(probe))
			if ok != found {
				return false
			}
			if found && r.ActionID != bestAct {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentLookupInsert(t *testing.T) {
	e, _ := New(Exact, 32, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if _, err := e.Insert(Entry{Key: key32(uint32(i)), ActionID: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		e.Lookup(key32(uint32(i)))
	}
	<-done
	if e.Len() != 1000 {
		t.Errorf("Len = %d", e.Len())
	}
}

// TestLookupWrongKeyLength pins the one rule every engine shares: a lookup
// key that is not exactly (width+7)/8 bytes long is a miss — not a match on
// its prefix (ternary, LPM at any width) and not a compare against
// shorter bounds (range).
func TestLookupWrongKeyLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  Kind
		width int
		ent   Entry
	}{
		{"exact", Exact, 32, Entry{Key: key32(0x0a000001)}},
		{"hash", Hash, 32, Entry{Key: key32(0x0a000001)}},
		{"lpm32", LPM, 32, Entry{Key: key32(0x0a000000), PrefixLen: 8}},
		{"lpm20", LPM, 20, Entry{Key: []byte{0x0a, 0, 0}, PrefixLen: 8}},
		{"lpm48", LPM, 48, Entry{Key: []byte{0x0a, 0, 0, 0, 0, 0}, PrefixLen: 8}},
		{"lpm128", LPM, 128, Entry{Key: append([]byte{0x0a}, make([]byte, 15)...), PrefixLen: 8}},
		{"ternary", Ternary, 32, Entry{Key: key32(0x0a000001), Mask: key32(0xffffffff)}},
		{"range", Range, 32, Entry{Key: key32(0x0a000000), High: key32(0x0affffff)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.kind, tc.width, 0)
			if err != nil {
				t.Fatal(err)
			}
			tc.ent.ActionID = 7
			if _, err := e.Insert(tc.ent); err != nil {
				t.Fatal(err)
			}
			good := make([]byte, (tc.width+7)/8)
			copy(good, []byte{0x0a, 0, 0, 1})
			if r, ok := e.Lookup(good); !ok || r.ActionID != 7 {
				t.Fatalf("lookup %x: %+v,%v, want the entry", good, r, ok)
			}
			for name, key := range map[string][]byte{
				"short": good[:len(good)-1],
				"long":  append(append([]byte(nil), good...), 0),
				"empty": {},
				"nil":   nil,
			} {
				if r, ok := e.Lookup(key); ok {
					t.Errorf("%s key %x hit %+v", name, key, r)
				}
			}
		})
	}
}
