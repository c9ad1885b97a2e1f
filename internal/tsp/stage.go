package tsp

import (
	"fmt"
	"sync/atomic"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// ResolvedTable is a direct handle to one table of the storage module:
// what a TSP reaches through the crossbar, wired when the template is
// downloaded rather than looked up per packet.
type ResolvedTable interface {
	// Lookup performs a plain table lookup.
	Lookup(key []byte) (match.Result, bool)
	// LookupMember resolves a selector (ECMP) table: the group is picked
	// by exact match on group, the member by hash.
	LookupMember(group []byte, hash uint64) (match.Result, bool)
}

// TableResolver hands out table handles by name. The ipbm device
// implements it over its frozen table view, pisa over the tables of its
// last rebuild, tests directly.
type TableResolver interface {
	ResolveTable(name string) (ResolvedTable, bool)
}

// WordTable is an optional extension of ResolvedTable: a handle whose
// engine can be probed by a key carried as one word. The fused tier asks
// once, at Bind, and from then on calls the engine's probe directly; the
// probe does no hit/miss accounting, which the executor batches on the Env
// and credits through AddLookupStats (see Env.flushTableStats).
type WordTable interface {
	// WordLookup returns the engine's probe for keys of keyBytes bytes
	// carried big-endian in one word with tail padding zero, or nil when
	// the table is byte-keyed (wide, ternary, range, selector) or its keys
	// have another length. A nil Result is a miss; a non-nil one is the
	// engine's own, read-only and valid forever.
	WordLookup(keyBytes int) func(word uint64) *match.Result
	// WordMember is WordLookup for a selector: the member pick for groups
	// of groupBytes bytes carried in one word, or nil when the table is no
	// selector or its groups are wider than a word or of another length.
	WordMember(groupBytes int) func(group, hash uint64) *match.Result
	AddLookupStats(hits, misses uint64)
}

// StageRuntime executes one logical stage template.
type StageRuntime struct {
	tmpl    *template.Stage
	tables  map[string]*template.Table
	actions map[string]*template.Action

	// prog and fused are the fused tier (ExecFused). prog is what lowering
	// resolves once — the applied tables with their key plans and
	// bind-time handles, the arm dispatch arrays (compile.go); fused is the
	// stage as native Go closures over it (fuse.go). Both are nil on the
	// reference tree interpreter (ExecInterp).
	prog  *stageProg
	fused *fusedProg

	// res is what the interpreter resolves its applies' tables by, per
	// apply; set by Bind. The fused tier resolves once, into prog.bound.
	res TableResolver

	// intStamp/intStageID are the stage's INT epilogue, run by executeOne
	// on either tier; set from BuildOpts.Int.
	intStamp   bool
	intStageID uint16

	// parseMask is the stage's needed-header set as a bitmask (valid when
	// parseMaskOK: every parsed HeaderID < 64). When the packet's header
	// vector already covers it, executeOne skips the parser walk with one
	// AND — the common case for every stage after the first.
	parseMask   uint64
	parseMaskOK bool

	packets  atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	defaults atomic.Uint64
}

// BuildOpts selects how stage runtimes are constructed: which executor,
// and whether each stage gets the INT stamping epilogue. The zero value
// is the default build (fused closures, INT off).
type BuildOpts struct {
	Mode ExecMode
	// Int gives every stage the IntStamp epilogue. Enabling or disabling
	// it is therefore an in-situ rebuild of the stage runtimes, not a
	// runtime branch flip.
	Int bool
}

// NewStageRuntime binds a stage template to its design's tables/actions
// and builds it as opts says: lowered to fused closures, or kept as a
// tree for the reference interpreter.
func NewStageRuntime(cfg *template.Config, name string, opts BuildOpts) (*StageRuntime, error) {
	st, ok := cfg.Stages[name]
	if !ok {
		return nil, fmt.Errorf("tsp: no stage %q in config", name)
	}
	sr := &StageRuntime{
		tmpl:    st,
		tables:  make(map[string]*template.Table),
		actions: make(map[string]*template.Action),
	}
	for _, tn := range st.Tables {
		t, ok := cfg.Tables[tn]
		if !ok {
			return nil, fmt.Errorf("tsp: stage %q uses unknown table %q", name, tn)
		}
		sr.tables[tn] = t
	}
	for _, arm := range st.Arms {
		a, ok := cfg.Actions[arm.Action]
		if !ok {
			return nil, fmt.Errorf("tsp: stage %q arm uses unknown action %q", name, arm.Action)
		}
		sr.actions[arm.Action] = a
	}
	sr.parseMaskOK = true
	for _, id := range st.Parse {
		if id < 0 || id >= 64 {
			sr.parseMask, sr.parseMaskOK = 0, false
			break
		}
		sr.parseMask |= 1 << uint(id)
	}
	if opts.Mode == ExecFused {
		sr.prog = compileStage(sr)
		sr.fused = fuseStage(sr)
	}
	sr.intStamp, sr.intStageID = opts.Int, IntStageID(name)
	return sr, nil
}

// BuildStageRuntimes constructs the runtime of every stage of a config,
// keyed by stage name.
func BuildStageRuntimes(cfg *template.Config, opts BuildOpts) (map[string]*StageRuntime, error) {
	out := make(map[string]*StageRuntime, len(cfg.Stages))
	for name := range cfg.Stages {
		sr, err := NewStageRuntime(cfg, name, opts)
		if err != nil {
			return nil, err
		}
		out[name] = sr
	}
	return out, nil
}

// Bind wires the stage's applies to their tables, once, at apply time
// after the tables exist. The fused tier resolves each table to its handle
// and, where the key or group fits a word, to the engine's own probe; the
// interpreter keeps res and resolves by name on every apply, as the
// per-packet reference. An apply whose table res does not know still
// builds its key, with the same faults, and misses. Handles stay valid
// across entry inserts and migrations — only a table drop invalidates
// them, and a drop always comes with new runtimes for the stages that
// referenced it.
func (sr *StageRuntime) Bind(res TableResolver) {
	if sr.prog == nil {
		sr.res = res
		return
	}
	for i, t := range sr.prog.tables {
		bt := &sr.prog.bound[i]
		*bt = boundTable{}
		rt, found := res.ResolveTable(t.Name)
		if !found {
			continue
		}
		bt.rt = rt
		wt, ok := rt.(WordTable)
		if !ok {
			continue
		}
		switch {
		case t.IsSelector && sr.fused.groups[i] != nil:
			if bt.member = wt.WordMember((t.Keys[0].Operand.Width + 7) / 8); bt.member != nil {
				bt.stats = wt
			}
		case sr.fused.keys[i] != nil:
			if bt.probe = wt.WordLookup(sr.prog.keyPlans[i].nBytes); bt.probe != nil {
				bt.stats = wt
			}
		}
	}
}

// WordKeyed reports whether the stage's applies of table run the word
// path — key or group in a register, the engine's own probe — rather than
// byte keys through the shared funnel. False before Bind, on the
// interpreter, and for a table the stage does not apply.
func (sr *StageRuntime) WordKeyed(table string) bool {
	if sr.prog == nil {
		return false
	}
	for i, t := range sr.prog.tables {
		if t.Name == table {
			return sr.prog.bound[i].probe != nil || sr.prog.bound[i].member != nil
		}
	}
	return false
}

// Name returns the stage name.
func (sr *StageRuntime) Name() string { return sr.tmpl.Name }

// Template returns the underlying template.
func (sr *StageRuntime) Template() *template.Stage { return sr.tmpl }

// Stats reports packets seen, table hits and misses.
func (sr *StageRuntime) Stats() (packets, hits, misses uint64) {
	return sr.packets.Load(), sr.hits.Load(), sr.misses.Load()
}

// Defaults reports how often the default arm ran (miss or no-apply).
func (sr *StageRuntime) Defaults() uint64 { return sr.defaults.Load() }

// matchOutcome is what the matcher hands the executor.
type matchOutcome struct {
	applied bool
	hit     bool
	tag     uint64
	params  []uint64
	table   string // the table the stage applied, for tracing
}

// ExecuteBatch runs the stage over every live packet of a batch before
// the pipeline advances to the next stage: per-stage state (match tables,
// closures, key plans) stays cache-hot across the batch, and the stage
// counters are accumulated in registers and flushed once. It is the one
// way to run a stage; a single packet is a batch of one. Packets already
// dropped by an earlier stage are skipped. Trace and Timed are re-pointed
// per packet from the packet itself.
func (sr *StageRuntime) ExecuteBatch(ps []*pkt.Packet, parser *OnDemandParser, env *Env) {
	var packets, hits, misses, defaults uint64
	for _, p := range ps {
		if p == nil || p.Drop {
			continue
		}
		packets++
		env.Trace = p.Trace
		env.Timed = p.Timed
		applied, hit, isDefault := sr.executeOne(p, parser, env)
		if applied {
			if hit {
				hits++
			} else {
				misses++
			}
		}
		if isDefault {
			defaults++
		}
	}
	env.flushTableStats()
	if packets != 0 {
		sr.packets.Add(packets)
		if hits != 0 {
			sr.hits.Add(hits)
		}
		if misses != 0 {
			sr.misses.Add(misses)
		}
		if defaults != 0 {
			sr.defaults.Add(defaults)
		}
	}
}

// executeOne is ExecuteBatch's per-packet core; the caller owns the
// stage counters.
func (sr *StageRuntime) executeOne(p *pkt.Packet, parser *OnDemandParser, env *Env) (applied, hit, isDefault bool) {
	env.Pkt = p
	// Parser submodule: just-in-time parsing of the declared headers. The
	// mask compare short-circuits the per-header walk when everything the
	// stage needs is already in the packet's header vector — Ensure on an
	// already-valid header is a no-op, so skipping it changes nothing.
	if !(sr.parseMaskOK && p.HV.HasAll(sr.parseMask)) {
		parser.EnsureAll(p, sr.tmpl.Parse)
	}
	// Matcher submodule. The outcome lives on the Env, not the stack:
	// its address flows into closure calls on the fused tier, and a
	// stack-local would escape (one allocation per stage per packet).
	out := &env.matchOut
	*out = matchOutcome{}
	if sr.fused != nil {
		if sr.fused.match != nil {
			sr.fused.match(env, out)
		}
	} else {
		sr.runMatch(sr.tmpl.Match, env, out)
	}
	// Executor submodule: select the arm by the matched entry's tag;
	// misses and no-apply paths take the default arm. The fused tier
	// carries a precomputed dispatch table; the interpreter scans the
	// template's arm list. Both pick the last declaration on a tie.
	armIdx, defIdx := -1, -1
	if sr.prog != nil {
		defIdx = sr.prog.defaultArm
		if out.applied && out.hit {
			// Backwards with early exit: the first match from the end is
			// the interpreter's last-declaration-wins.
			tags := sr.prog.armTags
			for i := len(tags) - 1; i >= 0; i-- {
				if tags[i] == out.tag {
					armIdx = sr.prog.armAt[i]
					break
				}
			}
		}
	} else {
		for i := range sr.tmpl.Arms {
			a := &sr.tmpl.Arms[i]
			if a.Default {
				defIdx = i
				continue
			}
			if out.applied && out.hit && a.Tag == out.tag {
				armIdx = i
			}
		}
	}
	if armIdx == -1 {
		armIdx = defIdx
		isDefault = armIdx != -1
	}
	if env.Trace != nil {
		ev := telemetry.StageEvent{
			TSP: env.TSPIndex, Stage: sr.tmpl.Name, Table: out.table,
			Applied: out.applied, Hit: out.hit, Tag: out.tag, Default: isDefault,
		}
		if armIdx != -1 {
			ev.Action = sr.tmpl.Arms[armIdx].Action
		}
		env.Trace.AddStage(ev)
	}
	if armIdx != -1 {
		if sr.fused != nil {
			if arm := sr.fused.arms[armIdx]; arm != nil {
				env.Params = out.params
				arm(env)
				env.Params = nil
			}
		} else if act := sr.actions[sr.tmpl.Arms[armIdx].Action]; act == nil {
			env.Faults.BadTemplate.Add(1)
		} else {
			env.Params = out.params
			env.ExecInstrs(act.Body)
			env.Params = nil
		}
	}
	// Stage epilogue: the INT stamp, when this runtime was built with it.
	// Runs whether or not an arm matched (the stage still processed the
	// packet) but not for drops — a dropped packet's trailer is never
	// egressed, so stamping it would only distort the flow-path counters.
	if sr.intStamp && !p.Drop {
		env.intStamp(sr.intStageID)
	}
	return out.applied, out.hit, isDefault
}

func (sr *StageRuntime) runMatch(stmts []template.MatchStmt, env *Env, out *matchOutcome) {
	for i := range stmts {
		st := &stmts[i]
		switch st.Kind {
		case template.MatchIf:
			if env.EvalCond(st.Cond) {
				sr.runMatch(st.Then, env, out)
			} else {
				sr.runMatch(st.Else, env, out)
			}
		case template.MatchApply:
			if out.applied {
				// One table application per stage per packet; extra
				// applies are template bugs.
				env.Faults.BadTemplate.Add(1)
				continue
			}
			t := sr.tables[st.Table]
			if t == nil {
				env.Faults.BadTemplate.Add(1)
				continue
			}
			var rt ResolvedTable
			if sr.res != nil {
				rt, _ = sr.res.ResolveTable(t.Name)
			}
			env.applyTableWith(t, rt, nil, out)
		}
	}
}

// applyTableWith performs one table application: key/group
// construction, the lookup through rt, and outcome recording. The
// interpreter and the fused tier's byte-keyed applies funnel through this
// so lookup semantics (including the skip-on-unreadable-key paths) cannot
// diverge between the two. A key plan (kp) skips the generic key
// builder's per-field operand dispatch; key bytes, selector handling,
// fault ordering and outcome recording are byte-identical either way. A
// nil rt, a table with no handle, builds its key and misses.
func (e *Env) applyTableWith(t *template.Table, rt ResolvedTable, kp *keyPlan, out *matchOutcome) {
	out.applied = true
	out.table = t.Name
	var res match.Result
	var ok bool
	if t.IsSelector {
		group, gok := e.operandBytes(&t.Keys[0].Operand, e.groupBuf)
		if !gok {
			return
		}
		e.groupBuf = group[:0]
		var h uint64
		if kp != nil && kp.sel {
			h = e.hashPlanned(kp)
		} else {
			h = uint64(fnvOffset64)
			for k := 1; k < len(t.Keys); k++ {
				raw, rok := e.operandBytes(&t.Keys[k].Operand, e.fieldBuf)
				if !rok {
					break
				}
				e.fieldBuf = raw[:0]
				for _, b := range raw {
					h ^= uint64(b)
					h *= fnvPrime64
				}
			}
		}
		if rt != nil {
			res, ok = rt.LookupMember(group, finalizeHash(h))
		}
	} else {
		var key []byte
		var kok bool
		if kp != nil {
			key, kok = e.buildKeyPlanned(kp)
		} else {
			key, kok = BuildKey(e, t)
		}
		if !kok {
			return
		}
		if rt != nil {
			res, ok = rt.Lookup(key)
		}
	}
	if ok {
		out.hit = true
		out.tag = uint64(res.ActionID)
		out.params = res.Params
	}
}

// keySlot returns the Env's zeroed n-byte key scratch slice.
func (e *Env) keySlot(n int) []byte {
	if cap(e.keyBuf) < n {
		e.keyBuf = make([]byte, n)
	}
	key := e.keyBuf[:n]
	for i := range key {
		key[i] = 0
	}
	return key
}

// flushTableStats credits the hit/miss counts the fused word path
// accumulated on this Env to their table and clears the batch.
// ExecuteBatch flushes once per batch, so the shared table counters are
// exact at every public boundary.
func (e *Env) flushTableStats() {
	if e.statTbl != nil {
		if e.statHits|e.statMisses != 0 {
			e.statTbl.stats.AddLookupStats(e.statHits, e.statMisses)
			e.statHits, e.statMisses = 0, 0
		}
		e.statTbl = nil
	}
}

// buildKeyPlanned is BuildKey over a compiled key plan: field sources,
// widths and key positions were resolved at compile time, so the
// per-packet work is bounds-checked copies. It must produce the same
// bytes and the same fault/abort sequence as BuildKey on the same table.
func (e *Env) buildKeyPlanned(p *keyPlan) ([]byte, bool) {
	key := e.keySlot(p.nBytes)
	for si := range p.steps {
		s := &p.steps[si]
		switch s.kind {
		case keyMeta:
			if s.aligned {
				so, nb := s.bitOff/8, s.width/8
				if so+nb > len(e.Pkt.Meta) {
					e.Faults.BadTemplate.Add(1)
					return nil, false
				}
				copy(key[s.dstOff/8:], e.Pkt.Meta[so:so+nb])
				continue
			}
			if !e.keyCopyBits(key, s, e.Pkt.Meta, s.bitOff) {
				return nil, false
			}
		case keyHdr:
			loc, ok := e.Pkt.HV.Loc(s.hdr)
			if !ok {
				e.Faults.InvalidHeaderAccess.Add(1)
				return nil, false
			}
			src := loc.Off*8 + s.bitOff
			if s.aligned {
				so, nb := src/8, s.width/8
				if so+nb > len(e.Pkt.Data) {
					e.Faults.BadTemplate.Add(1)
					return nil, false
				}
				copy(key[s.dstOff/8:], e.Pkt.Data[so:so+nb])
				continue
			}
			if !e.keyCopyBits(key, s, e.Pkt.Data, src) {
				return nil, false
			}
		default: // keyValue: constants, params — ReadOperand faults inside.
			v := e.ReadOperand(s.op)
			off, w := s.dstOff, s.width
			if w > 64 {
				// Value kinds carry at most 64 significant bits; the
				// high bits of the field stay zero (the key is zeroed).
				off += w - 64
				w = 64
			}
			if err := pkt.SetBits(key, off, w, v); err != nil {
				return nil, false
			}
		}
	}
	return key, true
}

// hashPlanned folds a selector's hashed fields over a compiled plan.
// Every field fits a register (the compiler rejects wider ones), so the
// fold runs load-shift-mix with no scratch buffer. Byte order, fault
// kinds and the stop-hashing-keep-looking-up behaviour on a faulted
// field all mirror the generic operandBytes loop.
func (e *Env) hashPlanned(p *keyPlan) uint64 {
	h := uint64(fnvOffset64)
loop:
	for si := range p.steps {
		s := &p.steps[si]
		var v uint64
		switch s.kind {
		case keyMeta:
			var err error
			v, err = pkt.GetBits(e.Pkt.Meta, s.bitOff, s.width)
			if err != nil {
				e.Faults.BadTemplate.Add(1)
				break loop
			}
		case keyHdr:
			loc, ok := e.Pkt.HV.Loc(s.hdr)
			if !ok {
				e.Faults.InvalidHeaderAccess.Add(1)
				break loop
			}
			var err error
			v, err = pkt.GetBits(e.Pkt.Data, loc.Off*8+s.bitOff, s.width)
			if err != nil {
				e.Faults.BadTemplate.Add(1)
				break loop
			}
		default: // keyValue — ReadOperand faults inside, never aborts.
			v = e.ReadOperand(s.op)
		}
		// Mix the field's bytes MSB-first, exactly the sequence
		// operandBytes lays out: a leading sub-byte fragment, then
		// whole bytes.
		for sh := ((s.width + 7) / 8) * 8; sh > 0; sh -= 8 {
			h ^= uint64(byte(v >> uint(sh-8)))
			h *= fnvPrime64
		}
	}
	return h
}

// keyCopyBits moves one unaligned planned field into the key, mirroring
// the generic path's extract-then-splice (and its BadTemplate fault on an
// out-of-range source). Fields of at most 64 bits move through a single
// register load/store; wider ones go through the Env's scratch buffer.
// Either route produces the bytes GetBytes+SetBytes would.
func (e *Env) keyCopyBits(key []byte, s *keyStep, src []byte, srcBit int) bool {
	if s.width <= 64 {
		v, err := pkt.GetBits(src, srcBit, s.width)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return false
		}
		return pkt.SetBits(key, s.dstOff, s.width, v) == nil
	}
	nb := (s.width + 7) / 8
	if cap(e.fieldBuf) < nb {
		e.fieldBuf = make([]byte, nb)
	}
	raw := e.fieldBuf[:nb]
	if err := pkt.GetBytes(src, srcBit, s.width, raw); err != nil {
		e.Faults.BadTemplate.Add(1)
		return false
	}
	e.fieldBuf = raw[:0]
	return pkt.SetBytes(key, s.dstOff, s.width, raw) == nil
}

// BuildKey assembles a table's lookup key by concatenating its key fields
// bit by bit (MSB first), padded to whole bytes at the tail. The control
// plane uses the same layout via ctrlplane.EncodeKey so inserted entries
// and data-plane lookups agree.
//
// The returned slice aliases the Env's scratch buffer and is valid only
// until the next BuildKey call on the same Env; lookup engines never
// retain it (exact engines copy via string conversion).
func BuildKey(env *Env, t *template.Table) ([]byte, bool) {
	n := (t.KeyWidth + 7) / 8
	if cap(env.keyBuf) < n {
		env.keyBuf = make([]byte, n)
	}
	key := env.keyBuf[:n]
	for i := range key {
		key[i] = 0
	}
	bit := 0
	for i := range t.Keys {
		o := &t.Keys[i].Operand
		raw, ok := env.operandBytes(o, env.fieldBuf)
		if !ok {
			return nil, false
		}
		env.fieldBuf = raw[:0]
		if err := appendBits(key, bit, o.Width, raw); err != nil {
			return nil, false
		}
		bit += o.Width
	}
	return key, true
}

// appendBits copies a width-bit field (right-aligned in raw) into dst at
// bit offset.
func appendBits(dst []byte, bitOff, width int, raw []byte) error {
	return pkt.SetBytes(dst, bitOff, width, raw)
}
