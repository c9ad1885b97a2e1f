package ipbm

import (
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
)

// scratchTable is an otherwise-unreferenced table whose create and drop
// edits are the smallest possible partial reconfiguration, but one that
// still forces a full epoch publish (snapshot swap, table create/drop
// safety, maximal stage reuse).
func scratchTable(name string) *template.Table {
	return &template.Table{
		Name: name, Kind: "exact",
		Keys:     []template.KeySel{{Name: "scratch.key", Kind: "exact"}},
		KeyWidth: 4, Size: 8,
	}
}

// TestEpochStoreBasics: each apply publishes a new epoch; with no
// packets in flight the previous version is reclaimed immediately. An
// edit is one publish, writes one audit event and counts exactly the TSP
// programs it wrote as template loads.
func TestEpochStoreBasics(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	e0, retired, _ := sw.EpochStats()
	if e0 != 1 || retired != 0 {
		t.Fatalf("after install: epoch=%d retired=%d", e0, retired)
	}
	seq0, loads0 := sw.tel.Events.LastSeq(), sw.Stats().TemplateLoads
	st, err := sw.Edit([]ctrlplane.EditOp{{Kind: "set_table", Table: "scratch", TableSpec: scratchTable("scratch")}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Hitless || st.TablesCreated != 1 || st.Epoch != 2 {
		t.Fatalf("apply stats: %+v", st)
	}
	// No stage references the scratch table, so every compiled stage is
	// reused verbatim across the epoch.
	if st.StagesRecompiled != 0 || st.StagesReused == 0 {
		t.Errorf("one-table edit recompiled %d stages (reused %d)",
			st.StagesRecompiled, st.StagesReused)
	}
	if loads := sw.Stats().TemplateLoads - loads0; loads != uint64(st.TSPsWritten) {
		t.Errorf("edit moved template loads by %d, wrote %d TSPs", loads, st.TSPsWritten)
	}
	epoch, retired, reclaimed := sw.EpochStats()
	if epoch != 2 || retired != 0 || reclaimed == 0 {
		t.Errorf("after edit: epoch=%d retired=%d reclaimed=%d", epoch, retired, reclaimed)
	}
	// The pipeline never stalled.
	if got := sw.Pipeline().StallTime(); got != 0 {
		t.Errorf("hitless edit stalled the pipeline for %v", got)
	}
	// One event, carrying the script's length and everything an apply
	// records, and one diff-mode apply on the counter.
	if n := sw.tel.Events.LastSeq() - seq0; n != 1 {
		t.Fatalf("edit wrote %d events, want 1", n)
	}
	ev, _ := sw.tel.Events.Last()
	if ev.Kind != "edit_commit" || ev.Detail != "1 ops" || ev.Epoch != 2 || !ev.Hitless ||
		ev.ConfigHash != configHash(sw.Config()) || ev.TablesCreated != 1 || ev.StagesReused != st.StagesReused {
		t.Errorf("edit event: %+v", ev)
	}
	if got := sw.tel.appliesDiff.Value(); got != 1 {
		t.Errorf("diff-mode applies = %d, want 1", got)
	}
}

// TestEpochReclamationSoak is the reclamation soak: 1k live edit
// commits race sharded forwarding; afterwards every retired program
// version must be reclaimed (the store holds only the current epoch —
// no monotonic growth) and packet accounting must conserve: every
// frame the ingress accepted reaches exactly one verdict. Run under
// -race this also exercises the pin/publish/reap memory ordering.
func TestEpochReclamationSoak(t *testing.T) {
	edits := 1000
	if testing.Short() {
		edits = 100
	}
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, _ := sw.Ports().Port(testbed.InPort)

	// Traffic: inject continuously until told to stop, counting every
	// accepted frame.
	stop := make(chan struct{})
	accepted := make(chan int, 1)
	go func() {
		n := 0
		i := 0
		for {
			select {
			case <-stop:
				accepted <- n
				return
			default:
			}
			if in.Inject(flowPacket(t, uint16(i%64), uint32(i))) {
				n++
			} else {
				time.Sleep(50 * time.Microsecond)
			}
			i++
		}
	}()

	// Edits: alternate create/drop of a scratch table, one request per
	// commit — 1k epoch publishes while packets are in flight.
	for i := 0; i < edits; i++ {
		op := ctrlplane.EditOp{Kind: "set_table", Table: "soak_scratch", TableSpec: scratchTable("soak_scratch")}
		if i%2 == 1 {
			op = ctrlplane.EditOp{Kind: "delete_table", Table: "soak_scratch"}
		}
		if _, err := sw.Edit([]ctrlplane.EditOp{op}); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	close(stop)
	total := <-accepted

	// Conservation: every accepted frame reaches exactly one verdict.
	finished := sw.packetsTotal
	deadline := time.Now().Add(10 * time.Second)
	for finished() < uint64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("conservation: %d/%d frames reached a verdict", finished(), total)
		}
		time.Sleep(time.Millisecond)
	}
	if got := finished(); got != uint64(total) {
		t.Errorf("verdicts %d != accepted %d (packets double-counted)", got, total)
	}

	// Reclamation: once traffic quiesces, the store holds only the
	// current epoch. EpochStats reaps before reading.
	var epoch uint64
	var retired int
	for time.Now().Before(deadline) {
		if epoch, retired, _ = sw.EpochStats(); retired == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if retired != 0 {
		t.Errorf("%d retired program versions never reclaimed", retired)
	}
	if want := uint64(edits + 1); epoch != want {
		t.Errorf("epoch = %d, want %d", epoch, want)
	}
	if got := sw.Pipeline().StallTime(); got != 0 {
		t.Errorf("soak stalled the pipeline for %v", got)
	}
}
