// Package match implements the table lookup engines behind every
// match-action stage: exact match (hashed SRAM), longest-prefix match (a
// stride-4 multibit trie for keys of up to 128 bits, the software
// stand-in for an LPM-capable SRAM design), ternary match
// (priority-ordered value/mask pairs, the TCAM model), range match, and
// the action selector behind ECMP (kind Hash: groups of members in the
// exact engine's slot array, a member picked by a flow hash).
//
// Keys are opaque byte strings assembled by the matcher submodule of a TSP
// from the header/metadata fields named in the table definition; a key of
// at most 64 bits is also, and on the fused executor tier only, one word
// (KeyWord), which the exact and LPM engines probe directly (LookupWord),
// and the selector picks by (LookupMemberWord).
// Every engine satisfies the Engine interface so the data plane can treat
// tables uniformly, and every engine is safe for lookups concurrent with
// updates, matching the control/data plane split of a switch. The exact,
// LPM and selector engines are written in place beside wait-free readers,
// the way a stage's SRAM is: slots are atomic pointers to immutable
// entries (see exactEngine, lpmEngine and selectorEngine); the TCAM
// models keep a sync.RWMutex. Their writers find an entry by handle
// through one versioned handle table
// (handles.go): a handle names an index and that index's generation, so
// a handle kept past its entry's deletion never names the entry that
// reused the index.
package match
