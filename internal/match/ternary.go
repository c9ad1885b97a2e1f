package match

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// ternaryEngine models a TCAM: entries are (value, mask) pairs searched in
// priority order (higher Priority wins; insertion order breaks ties, older
// first, matching the first-match semantics of a physical TCAM).
type ternaryEngine struct {
	mu       sync.RWMutex
	width    int
	capacity int
	// entries kept sorted by descending priority, then ascending handle.
	entries []*Entry
	next    int
}

func newTernary(widthBits, capacity int) *ternaryEngine {
	return &ternaryEngine{width: widthBits, capacity: capacity}
}

func (t *ternaryEngine) Kind() Kind    { return Ternary }
func (t *ternaryEngine) KeyWidth() int { return t.width }

func (t *ternaryEngine) Lookup(key []byte) (Result, bool) {
	if !keyLenOK(key, t.width) {
		return Result{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if ternaryMatches(key, e.Key, e.Mask) {
			return Result{ActionID: e.ActionID, Params: e.Params, EntryHandle: e.Handle}, true
		}
	}
	return Result{}, false
}

// ternaryMatches compares under mask; key, value and mask are of one length.
func ternaryMatches(key, value, mask []byte) bool {
	for i := range value {
		if (key[i]^value[i])&mask[i] != 0 {
			return false
		}
	}
	return true
}

func (t *ternaryEngine) Insert(ent Entry) (int, error) {
	if err := checkKeyLen(ent.Key, t.width); err != nil {
		return 0, err
	}
	if len(ent.Mask) != len(ent.Key) {
		return 0, fmt.Errorf("match: mask of %d bytes, want %d", len(ent.Mask), len(ent.Key))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Replace an identical value/mask/priority entry in place.
	for _, e := range t.entries {
		if e.Priority == ent.Priority && bytes.Equal(e.Key, ent.Key) && bytes.Equal(e.Mask, ent.Mask) {
			e.ActionID = ent.ActionID
			e.Params = append([]uint64(nil), ent.Params...)
			return e.Handle, nil
		}
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return 0, fmt.Errorf("%w: %d entries", ErrFull, t.capacity)
	}
	cp := ent
	cp.Key = append([]byte(nil), ent.Key...)
	cp.Mask = append([]byte(nil), ent.Mask...)
	cp.Params = append([]uint64(nil), ent.Params...)
	cp.Handle = t.next
	t.next++
	t.entries = append(t.entries, &cp)
	sort.SliceStable(t.entries, func(i, j int) bool {
		if t.entries[i].Priority != t.entries[j].Priority {
			return t.entries[i].Priority > t.entries[j].Priority
		}
		return t.entries[i].Handle < t.entries[j].Handle
	})
	return cp.Handle, nil
}

func (t *ternaryEngine) Delete(handle int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range t.entries {
		if e.Handle == handle {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
}

func (t *ternaryEngine) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

func (t *ternaryEngine) Entries() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		cp := *e
		cp.Key = append([]byte(nil), e.Key...)
		cp.Mask = append([]byte(nil), e.Mask...)
		cp.Params = append([]uint64(nil), e.Params...)
		out = append(out, cp)
	}
	return out
}

// rangeEngine matches keys within [Key, High] treated as big-endian
// unsigned integers, searched in priority order.
type rangeEngine struct {
	mu       sync.RWMutex
	width    int
	capacity int
	entries  []*Entry
	next     int
}

func newRange(widthBits, capacity int) *rangeEngine {
	return &rangeEngine{width: widthBits, capacity: capacity}
}

func (r *rangeEngine) Kind() Kind    { return Range }
func (r *rangeEngine) KeyWidth() int { return r.width }

func (r *rangeEngine) Lookup(key []byte) (Result, bool) {
	if !keyLenOK(key, r.width) {
		return Result{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if bytes.Compare(key, e.Key) >= 0 && bytes.Compare(key, e.High) <= 0 {
			return Result{ActionID: e.ActionID, Params: e.Params, EntryHandle: e.Handle}, true
		}
	}
	return Result{}, false
}

func (r *rangeEngine) Insert(ent Entry) (int, error) {
	if err := checkKeyLen(ent.Key, r.width); err != nil {
		return 0, err
	}
	if len(ent.High) != len(ent.Key) {
		return 0, fmt.Errorf("match: range high of %d bytes, want %d", len(ent.High), len(ent.Key))
	}
	if bytes.Compare(ent.Key, ent.High) > 0 {
		return 0, fmt.Errorf("match: empty range %x..%x", ent.Key, ent.High)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.capacity > 0 && len(r.entries) >= r.capacity {
		return 0, fmt.Errorf("%w: %d entries", ErrFull, r.capacity)
	}
	cp := ent
	cp.Key = append([]byte(nil), ent.Key...)
	cp.High = append([]byte(nil), ent.High...)
	cp.Params = append([]uint64(nil), ent.Params...)
	cp.Handle = r.next
	r.next++
	r.entries = append(r.entries, &cp)
	sort.SliceStable(r.entries, func(i, j int) bool {
		if r.entries[i].Priority != r.entries[j].Priority {
			return r.entries[i].Priority > r.entries[j].Priority
		}
		return r.entries[i].Handle < r.entries[j].Handle
	})
	return cp.Handle, nil
}

func (r *rangeEngine) Delete(handle int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range r.entries {
		if e.Handle == handle {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
}

func (r *rangeEngine) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

func (r *rangeEngine) Entries() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		cp := *e
		cp.Key = append([]byte(nil), e.Key...)
		cp.High = append([]byte(nil), e.High...)
		cp.Params = append([]uint64(nil), e.Params...)
		out = append(out, cp)
	}
	return out
}
