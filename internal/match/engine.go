package match

import "fmt"

// Kind enumerates the supported match kinds.
type Kind int

// Match kinds. Hash is the rP4 spelling of a selector table's keys (Fig.
// 5a uses `hash` keys for ECMP): its engine is an action selector, whose
// entries are the members of groups matched exactly on the first key.
const (
	Exact Kind = iota
	LPM
	Ternary
	Range
	Hash
)

// String returns the rP4 spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case LPM:
		return "lpm"
	case Ternary:
		return "ternary"
	case Range:
		return "range"
	case Hash:
		return "hash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses the rP4 spelling of a match kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "exact":
		return Exact, nil
	case "lpm":
		return LPM, nil
	case "ternary":
		return Ternary, nil
	case "range":
		return Range, nil
	case "hash":
		return Hash, nil
	default:
		return 0, fmt.Errorf("match: unknown match kind %q", s)
	}
}

// Result is what a lookup returns: the action id bound to the entry and its
// parameter words, as compiled by rp4bc.
type Result struct {
	ActionID int
	Params   []uint64
	// EntryHandle identifies the matched entry for counters and deletion.
	EntryHandle int
}

// Engine is a table lookup engine. Every method is safe to call from any
// goroutine at any time: Insert and Delete serialise among themselves
// inside the engine and run beside Lookup, which on the exact and LPM
// engines takes no lock. A Lookup concurrent with a write sees the entry
// as it was before or after it, never a mix.
type Engine interface {
	// Kind reports the engine's match kind.
	Kind() Kind
	// KeyWidth reports the key width in bits.
	KeyWidth() int
	// Lookup finds the entry matching key, or ok=false for a miss. A key
	// that is not (KeyWidth+7)/8 bytes long always misses.
	Lookup(key []byte) (Result, bool)
	// Insert adds or replaces an entry; which of Entry's fields it reads
	// depends on the kind. A Hash insert always adds: the entry is one more
	// member of the group its key names.
	Insert(e Entry) (handle int, err error)
	// Delete removes the entry with the given handle.
	Delete(handle int) error
	// Len reports the number of installed entries.
	Len() int
	// Entries returns a copy of the installed entries (for table dumps).
	Entries() []Entry
}

// Entry is one table entry in engine-independent form.
type Entry struct {
	Key       []byte
	Mask      []byte // Ternary only
	PrefixLen int    // LPM only
	High      []byte // Range only: Key..High inclusive
	Priority  int    // Ternary/Range tie-break: higher wins
	ActionID  int
	Params    []uint64
	Handle    int // assigned by Insert; round-tripped by Entries
}

// keyLenOK reports whether key is as long as a widthBits-bit key. Every
// engine's Lookup asks it first: a key of another length is a miss, never
// a match on a prefix of it or a compare against shorter bounds.
func keyLenOK(key []byte, widthBits int) bool { return len(key) == (widthBits+7)/8 }

func checkKeyLen(key []byte, widthBits int) error {
	if !keyLenOK(key, widthBits) {
		return fmt.Errorf("match: key of %d bytes, want %d for %d-bit key", len(key), (widthBits+7)/8, widthBits)
	}
	return nil
}

// CheckWidth reports whether an engine of the given kind takes keys of
// keyWidthBits bits. New refuses exactly what it refuses; a configuration
// check asks it so that a table no engine can hold is refused before any
// of the configuration is applied.
func CheckWidth(kind Kind, keyWidthBits int) error {
	switch {
	case keyWidthBits <= 0:
		return fmt.Errorf("match: key width %d invalid", keyWidthBits)
	case kind == LPM && keyWidthBits > maxLPMWidth:
		return fmt.Errorf("match: %d-bit LPM key, at most %d bits", keyWidthBits, maxLPMWidth)
	}
	return nil
}

// New builds an engine of the given kind with the given key width in bits
// and capacity (maximum entries; 0 means unlimited).
func New(kind Kind, keyWidthBits, capacity int) (Engine, error) {
	if err := CheckWidth(kind, keyWidthBits); err != nil {
		return nil, err
	}
	switch kind {
	case Exact:
		return newExact(keyWidthBits, capacity), nil
	case Hash:
		return newSelector(keyWidthBits, capacity), nil
	case LPM:
		return newLPM(keyWidthBits, capacity), nil
	case Ternary:
		return newTernary(keyWidthBits, capacity), nil
	case Range:
		return newRange(keyWidthBits, capacity), nil
	default:
		return nil, fmt.Errorf("match: unknown kind %v", kind)
	}
}

// ErrFull is wrapped by Insert when a capacity-limited table is full.
var ErrFull = fmt.Errorf("match: table full")

// ErrNoEntry is wrapped by Delete when the handle does not exist.
var ErrNoEntry = fmt.Errorf("match: no such entry")
