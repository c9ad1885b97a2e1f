// Package match implements the table lookup engines behind every
// match-action stage: exact match (hashed SRAM), longest-prefix match (a
// stride-4 multibit trie for every key width, the software stand-in for
// an LPM-capable SRAM design), ternary match (priority-ordered value/mask
// pairs, the TCAM model) and range match.
//
// Keys are opaque byte strings assembled by the matcher submodule of a TSP
// from the header/metadata fields named in the table definition; a key of
// at most 64 bits is also, and on the fused executor tier only, one word
// (KeyWord), which the exact and LPM engines probe directly (LookupWord).
// Every engine satisfies the Engine interface so the data plane can treat
// tables uniformly, and every engine is safe for lookups concurrent with
// updates, matching the control/data plane split of a switch. The exact
// and LPM engines are written in place beside wait-free readers, the way
// a stage's SRAM is: slots are atomic pointers to immutable entries (see
// exactEngine and lpmEngine); the TCAM models keep a sync.RWMutex.
package match
