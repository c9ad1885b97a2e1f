package match

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// selectorEngine is the Hash kind: an action selector, P4Runtime's table
// of groups and members, the engine behind an ECMP table. Its entries are
// members: an entry's key is its group, and a lookup takes the flow's hash
// besides and picks members[h % n] of the group, in insertion order.
//
// Groups live in the exact engine's slot array, keyed on the group
// (slotIndex). A group is immutable once a slot points at it and holds its
// members as one slice. A member insert or delete builds the group's next
// version, copying that group's members and no other's, and swaps it into
// the slot with one pointer store; deleting a group's last member
// tombstones the slot. So a reader, which takes no lock, sees a group's
// members before or after a write, never a mix, and a *Result it was
// handed stays valid forever. Delete finds a member by its handle through
// the handle table the other engines use (handles.go), which holds each
// member as an exact entry keyed by its group.
type selectorEngine struct {
	mu       sync.Mutex // serialises writers; readers never take it
	width    int
	capacity int // members
	slotIndex[selGroup, *selGroup]
	members atomic.Int64           // written under mu
	handles handleTable[*exactEnt] // the members; guarded by mu
}

// selGroup is one group: its key and its members, in insertion order,
// never empty and never written after publication.
type selGroup struct {
	slotKey
	members []Result
}

func newSelector(widthBits, capacity int) *selectorEngine {
	e := &selectorEngine{width: widthBits, capacity: capacity}
	e.init()
	return e
}

func (e *selectorEngine) Kind() Kind    { return Hash }
func (e *selectorEngine) KeyWidth() int { return e.width }
func (e *selectorEngine) Len() int      { return int(e.members.Load()) }

// group is the reader's probe: the group whose key is word (and key, for a
// wide one; key is nil on the word path), or nil.
func (e *selectorEngine) group(word uint64, key []byte) *selGroup {
	t := e.tab.Load()
	tag := slotTag(word)
	for i := t.home(tag); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.tag.Load() {
		case tag:
			if g := s.ent.Load(); g != nil && g.is(word, key) {
				return g
			}
		case tagEmpty:
			return nil
		}
	}
}

// LookupMember picks the member of group that hash h selects: members[h %
// n], in insertion order. ok is false when the group has no members or
// group is not (KeyWidth+7)/8 bytes long.
func (e *selectorEngine) LookupMember(group []byte, h uint64) (Result, bool) {
	if !keyLenOK(group, e.width) {
		return Result{}, false
	}
	if g := e.group(KeyWord(group), group); g != nil {
		return g.members[h%uint64(len(g.members))], true
	}
	return Result{}, false
}

// LookupMemberWord is LookupMember for a group carried as one word (KeyWord
// of its bytes). nil is a miss — always, on an engine whose groups are
// wider than 64 bits. The Result is the published group's own: read-only,
// and valid forever.
func (e *selectorEngine) LookupMemberWord(group, h uint64) *Result {
	if g := e.group(group, nil); g != nil {
		return &g.members[h%uint64(len(g.members))]
	}
	return nil
}

// Lookup is the pick with hash 0: the group's oldest member.
func (e *selectorEngine) Lookup(group []byte) (Result, bool) { return e.LookupMember(group, 0) }

// Insert adds a member to the group ent.Key names, creating the group if
// it has none; it never replaces. Capacity counts members.
func (e *selectorEngine) Insert(ent Entry) (int, error) {
	if err := checkKeyLen(ent.Key, e.width); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.capacity > 0 && e.Len() >= e.capacity {
		return 0, fmt.Errorf("%w: %d members", ErrFull, e.capacity)
	}
	m := &exactEnt{slotKey: newSlotKey(ent.Key), res: Result{ActionID: ent.ActionID,
		Params: append([]uint64(nil), ent.Params...), EntryHandle: e.handles.next()}}
	e.handles.put(m)
	if s, g := e.find(m.word, ent.Key); g != nil {
		members := make([]Result, len(g.members)+1)
		copy(members, g.members)
		members[len(g.members)] = m.res
		s.ent.Store(&selGroup{slotKey: g.slotKey, members: members})
	} else {
		e.add(s, m.word, &selGroup{slotKey: m.slotKey, members: []Result{m.res}})
	}
	e.members.Add(1)
	return m.res.EntryHandle, nil
}

// Delete removes one member; the rest of its group keep their order.
func (e *selectorEngine) Delete(handle int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.handles.get(handle)
	if m == nil {
		return fmt.Errorf("%w: handle %d", ErrNoEntry, handle)
	}
	e.handles.release(handle)
	s, g := e.find(m.word, []byte(m.key))
	if len(g.members) == 1 {
		e.clear(s)
	} else {
		members := make([]Result, 0, len(g.members)-1)
		for _, r := range g.members {
			if r.EntryHandle != handle {
				members = append(members, r)
			}
		}
		s.ent.Store(&selGroup{slotKey: g.slotKey, members: members})
	}
	e.members.Add(-1)
	return nil
}

// Entries returns the members sorted by handle, each keyed by its group.
func (e *selectorEngine) Entries() []Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return entriesOf(&e.handles, e.width)
}
