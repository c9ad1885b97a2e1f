package ipbm

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/mem"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
	"ipsa/internal/verdict"
)

// deviceState is what a refused or failed commit must leave exactly as
// it found it.
type deviceState struct {
	Hash        string
	Epoch, Seq  uint64
	Blocks      map[string][]int // the memory manager's tables: their blocks' clusters
	FreeBlocks  int
	Registers   []string
	View        map[string]*mem.Table // the published handle view
	Drop        bool                  // the probe frame's verdict and out port
	Reason      verdict.DropReason
	OutPort     int
	IntEnabled  bool
	IntStamping bool
}

func stateOf(t *testing.T, sw *Switch) deviceState {
	t.Helper()
	st := deviceState{
		Hash:        configHash(sw.Config()),
		Seq:         sw.tel.Events.LastSeq(),
		Blocks:      map[string][]int{},
		FreeBlocks:  sw.mm.Pool().FreeBlocks(),
		Registers:   sw.regs.Names(),
		View:        map[string]*mem.Table{},
		IntEnabled:  sw.IntEnabled(),
		IntStamping: sw.epochs.current() != nil && sw.epochs.current().design.Int != nil,
	}
	st.Epoch, _, _ = sw.EpochStats()
	for _, name := range sw.mm.Tables() {
		tbl, _ := sw.mm.Table(name)
		for _, id := range tbl.Blocks() {
			c, _ := sw.mm.Pool().ClusterOf(id)
			st.Blocks[name] = append(st.Blocks[name], c)
		}
		sort.Ints(st.Blocks[name])
	}
	sort.Strings(st.Registers)
	if v := sw.epochs.current(); v != nil {
		for name, tbl := range v.view {
			st.View[name] = tbl
		}
	}
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	st.Drop, st.Reason, st.OutPort = p.Drop, p.DropReason, p.OutPort
	return st
}

func sameState(t *testing.T, what string, before, after deviceState) {
	t.Helper()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("%s changed the device:\nbefore %+v\n after %+v", what, before, after)
	}
}

// exactTable is an exact table on a 32-bit key with size entries.
func exactTable(name string, size int) *template.Table {
	return &template.Table{
		Name: name, Kind: "exact",
		Keys:     []template.KeySel{{Name: "scratch.key", Kind: "exact"}},
		KeyWidth: 32, Size: size,
	}
}

// TestCommitRefusedWhole: a commit the plan refuses changes nothing, and
// leaves nothing behind that a later commit would adopt.
func TestCommitRefusedWhole(t *testing.T) {
	// withBase applies the running config plus change.
	withBase := func(sw *Switch, change func(cfg *template.Config)) (*ctrlplane.ApplyStats, error) {
		cfg, err := sw.Config().Clone()
		if err != nil {
			t.Fatal(err)
		}
		change(cfg)
		return sw.ApplyConfig(cfg)
	}
	// overfull adds two small tables, one that the pool cannot hold and a
	// new register.
	overfull := func(cfg *template.Config) {
		for name, size := range map[string]int{"aa_small": 8, "zz_small": 8, "mm_huge": 1 << 24} {
			cfg.Tables[name] = exactTable(name, size)
		}
		cfg.Registers = append(cfg.Registers, template.Register{Name: "new_reg", Width: 32, Size: 16})
	}

	t.Run("last table does not fit", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		before := stateOf(t, sw)
		if _, err := withBase(sw, overfull); err == nil || !strings.Contains(err.Error(), "blocks") {
			t.Fatalf("over-full apply: err=%v, want a block shortage", err)
		}
		sameState(t, "the over-full apply", before, stateOf(t, sw))
	})

	t.Run("new register beside a resized one", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		if _, err := withBase(sw, func(cfg *template.Config) {
			cfg.Registers = []template.Register{{Name: "kept", Width: 32, Size: 16}}
		}); err != nil {
			t.Fatal(err)
		}
		before := stateOf(t, sw)
		_, err := withBase(sw, func(cfg *template.Config) {
			cfg.Registers = []template.Register{{Name: "added", Width: 32, Size: 16}, {Name: "kept", Width: 32, Size: 32}}
		})
		if err == nil || !strings.Contains(err.Error(), "resized") {
			t.Fatalf("resizing apply: err=%v", err)
		}
		sameState(t, "the resizing apply", before, stateOf(t, sw))
	})

	t.Run("refused table's name is created fresh", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		// Each refusal runs the tables in a new order; none may leave one
		// behind.
		for i := 0; i < 16; i++ {
			if _, err := withBase(sw, overfull); err == nil {
				t.Fatal("over-full apply accepted")
			}
		}
		st, err := withBase(sw, func(cfg *template.Config) {
			cfg.Tables["aa_small"] = exactTable("aa_small", 1<<16)
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := sw.mm.Table("aa_small")
		pc := sw.mm.Pool().Config()
		if want := mem.BlocksForTable(32, 1<<16, pc.BlockWidth, pc.BlockDepth); st.TablesCreated != 1 || len(tbl.Blocks()) != want {
			t.Fatalf("aa_small: created %d, %d blocks; want 1 created with %d blocks", st.TablesCreated, len(tbl.Blocks()), want)
		}
		if _, ok := sw.mm.Table("zz_small"); ok {
			t.Error("zz_small left behind by a refused apply")
		}
	})
}

// TestCommitFaultAtEveryStep fails the commit at each of its steps in
// turn, for the apply and the unload of every shipped script, an edit
// and both INT toggles, on both crossbars: every failure leaves the
// device exactly as it was, and the commit then goes through.
func TestCommitFaultAtEveryStep(t *testing.T) {
	for _, xbar := range []mem.CrossbarKind{mem.FullCrossbar, mem.ClusteredCrossbar} {
		for _, name := range []string{"acl", "ecmp", "flowprobe", "srv6", "vlan"} {
			t.Run(xbar.String()+"/"+name, func(t *testing.T) {
				sw, w := newBaseSwitchOpts(t, func(o *Options) {
					// A roomy pool, so that each cluster holds the biggest table.
					o.Crossbar, o.Mem = xbar, mem.Config{Blocks: 128, BlockWidth: 128, BlockDepth: 4096, Clusters: 2}
				})
				base := sw.Config()
				rep := testbed.Update(t, w, name+".script")
				apply := func(cfg *template.Config) func() error {
					return func() error { _, err := sw.ApplyConfig(cfg); return err }
				}
				faultEveryStep(t, sw, "load", apply(rep.Config))
				faultEveryStep(t, sw, "unload", apply(base))
				faultEveryStep(t, sw, "edit", func() error { _, err := sw.Edit(setScratch("scratch")); return err })
				faultEveryStep(t, sw, "INT on", func() error { return sw.SetInt(true) })
				faultEveryStep(t, sw, "INT off", func() error { return sw.SetInt(false) })
			})
		}
	}
}

// faultEveryStep runs commit with a fault injected at step 1, 2, ...
// until it commits, checking that each failure changed nothing, and
// returns the number of steps the commit took.
func faultEveryStep(t *testing.T, sw *Switch, what string, commit func() error) int {
	t.Helper()
	defer func() { sw.failStep = 0 }()
	for k := 1; ; k++ {
		before := stateOf(t, sw)
		sw.failStep = k
		err := commit()
		if err == nil {
			if k < 4 {
				t.Fatalf("%s committed after %d steps; a commit has at least four", what, k-1)
			}
			return k - 1
		}
		if !strings.Contains(err.Error(), "injected") {
			t.Fatalf("%s, fault at step %d: %v", what, k, err)
		}
		sameState(t, fmt.Sprintf("%s failed at step %d", what, k), before, stateOf(t, sw))
	}
}

// TestCommitFaultsUnderTrafficHitless: failed commits under sharded
// forwarding are invisible to traffic. Probe frames flow through
// RunSharded(2) while ecmp.script's load, then its unload, fails at each
// step in turn: the epoch never moves, no frame is dropped, and every
// accepted frame has exactly one verdict.
func TestCommitFaultsUnderTrafficHitless(t *testing.T) {
	sw, w := newBaseSwitch(t)
	base := sw.Config()
	rep := testbed.Update(t, w, "ecmp.script")
	if err := sw.RunSharded(2, DefaultBatch); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, err := sw.Ports().Port(testbed.InPort)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Ports().Port(testbed.OutPort)
	if err != nil {
		t.Fatal(err)
	}
	frame := v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64)

	// traffic injects probe frames in a closed loop, at most 64 inside
	// the switch, until stop is called; accepted counts what the switch
	// took.
	var accepted uint64
	traffic := func() (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			inside := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				for {
					if _, ok := out.Drain(); !ok {
						break
					}
					inside--
				}
				switch {
				case inside >= 64:
					runtime.Gosched()
				case in.Inject(append([]byte(nil), frame...)):
					accepted++
					inside++
				default:
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		return func() { close(done); wg.Wait() }
	}
	// failEach fails the commit from the running config to cfg at each of
	// its steps, under traffic. The steps are counted first, on a scratch
	// switch running from: past the last one the commit would go through.
	failEach := func(what string, from, cfg *template.Config) {
		scratch, _ := newBaseSwitch(t)
		if _, err := scratch.ApplyConfig(from); err != nil {
			t.Fatal(err)
		}
		n := faultEveryStep(t, scratch, what, func() error { _, err := scratch.ApplyConfig(cfg); return err })
		stop := traffic()
		defer stop()
		for k := 1; k <= n; k++ {
			epoch, _, _ := sw.EpochStats()
			sw.failStep = k
			_, err := sw.ApplyConfig(cfg)
			sw.failStep = 0
			if err == nil || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("%s with a fault at step %d of %d: err=%v", what, k, n, err)
			}
			if e, _, _ := sw.EpochStats(); e != epoch {
				t.Fatalf("%s failed at step %d moved the epoch %d -> %d", what, k, epoch, e)
			}
		}
	}

	failEach("ecmp load", base, rep.Config)
	// The commits that succeed run with no traffic: between the ECMP
	// publish and its member inserts, and after the unload drops the
	// ECMP table, probes drop by table policy.
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	insert(t, sw, testbed.ECMPMember(testbed.NhMAC.Uint64()))
	failEach("ecmp unload", rep.Config, base)

	vs := waitLedger(t, sw, accepted)
	if vs[verdict.Forwarded] != accepted {
		t.Errorf("%d of %d probe frames forwarded; verdicts %v", vs[verdict.Forwarded], accepted, vs)
	}
	if accepted == 0 {
		t.Error("no probe frame was accepted")
	}
}
