package match

import (
	"encoding/binary"
	"errors"
	"math/rand"
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

// TestDIR168MatchesTrie differentially validates the DIR-16-8-8 fast path
// against the binary trie under random insert/delete/lookup interleavings.
// Every lookup is also made by word and must agree; a second goroutine
// probes by word throughout (run it under -race) and reads through the
// *Result it gets while the slots it points into are being replaced.
func TestDIR168MatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fast := newDIR168(0)
	slow := newLPMTrie(32, 0)
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for rr := rand.New(rand.NewSource(7)); ; {
			select {
			case <-stop:
				return
			default:
			}
			if r := fast.LookupWord(uint64(rr.Uint32())); r != nil && (len(r.Params) != 1 || r.Params[0] != uint64(r.ActionID)) {
				t.Errorf("word probe beside writers: torn result %+v", *r)
				return
			}
		}
	}()
	type live struct{ fastH, slowH int }
	var handles []live
	for step := 0; step < 4000; step++ {
		op := rng.Intn(10)
		switch {
		case op < 6: // insert
			plen := rng.Intn(33)
			addr := rng.Uint32()
			if plen < 32 {
				addr &= ^uint32(0) << uint(32-plen)
			}
			if plen == 0 {
				addr = 0
			}
			e := Entry{Key: key32(addr), PrefixLen: plen, ActionID: step + 1, Params: []uint64{uint64(step + 1)}}
			fh, err1 := fast.Insert(e)
			sh, err2 := slow.Insert(e)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("insert divergence: %v vs %v", err1, err2)
			}
			if err1 == nil {
				handles = append(handles, live{fh, sh})
			}
		case op < 8 && len(handles) > 0: // delete
			i := rng.Intn(len(handles))
			h := handles[i]
			err1 := fast.Delete(h.fastH)
			err2 := slow.Delete(h.slowH)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("delete divergence: %v vs %v", err1, err2)
			}
			handles = append(handles[:i], handles[i+1:]...)
		default: // lookups
			for j := 0; j < 16; j++ {
				probe := key32(rng.Uint32())
				rf, okF := fast.Lookup(probe)
				rs, okS := slow.Lookup(probe)
				if okF != okS || (okF && rf.ActionID != rs.ActionID) {
					t.Fatalf("lookup divergence on %x: fast=%v/%v slow=%v/%v",
						probe, rf.ActionID, okF, rs.ActionID, okS)
				}
				rw := fast.LookupWord(uint64(binary.BigEndian.Uint32(probe)))
				if (rw != nil) != okF || okF && (rw.ActionID != rf.ActionID || rw.EntryHandle != rf.EntryHandle || rw.Params[0] != uint64(rf.ActionID)) {
					t.Fatalf("word probe on %x: %+v, byte probe %+v/%v", probe, rw, rf, okF)
				}
			}
		}
		if fast.Len() != slow.Len() {
			t.Fatalf("len divergence: %d vs %d", fast.Len(), slow.Len())
		}
	}
}

func TestDIR168Basics(t *testing.T) {
	e, err := New(LPM, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*dir168); !ok {
		t.Fatalf("32-bit LPM engine is %T, want dir168", e)
	}
	if e.Kind() != LPM || e.KeyWidth() != 32 {
		t.Error("kind/width wrong")
	}
	// Capacity enforced via the shadow trie.
	for i := 0; i < 4; i++ {
		if _, err := e.Insert(Entry{Key: key32(uint32(i) << 24), PrefixLen: 8, ActionID: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Insert(Entry{Key: key32(0xF0000000), PrefixLen: 8}); !errors.Is(err, ErrFull) {
		t.Errorf("full insert: %v", err)
	}
	if _, err := e.Insert(Entry{Key: key32(0), PrefixLen: 40}); err == nil {
		t.Error("bad prefix accepted")
	}
	if _, ok := e.Lookup([]byte{1}); ok {
		t.Error("short key matched")
	}
	if err := e.Delete(12345); !errors.Is(err, ErrNoEntry) {
		t.Errorf("ghost delete: %v", err)
	}
	// Entries snapshot via the trie.
	if got := len(e.Entries()); got != 4 {
		t.Errorf("entries = %d", got)
	}
}

// TestLookupWrongKeyLength pins the one rule every engine shares: a lookup
// key that is not exactly (width+7)/8 bytes long is a miss — not a match on
// its prefix (ternary, dir168, trie) and not a compare against shorter
// bounds (range).
func TestLookupWrongKeyLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  Kind
		width int
		ent   Entry
	}{
		{"exact", Exact, 32, Entry{Key: key32(0x0a000001)}},
		{"dir168", LPM, 32, Entry{Key: key32(0x0a000000), PrefixLen: 8}},
		{"trie", LPM, 48, Entry{Key: []byte{0x0a, 0, 0, 0, 0, 0}, PrefixLen: 8}},
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
			good := append([]byte{0x0a, 0, 0, 1}, make([]byte, tc.width/8-4)...)
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
