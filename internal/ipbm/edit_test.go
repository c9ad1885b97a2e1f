package ipbm

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
)

// ccmListener serves sw's control channel on an ephemeral port for the
// length of the test.
func ccmListener(t *testing.T, sw *Switch) string {
	t.Helper()
	srv := ctrlplane.NewServer(sw, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func setScratch(name string) []ctrlplane.EditOp {
	return []ctrlplane.EditOp{{Kind: "set_table", Table: name, TableSpec: scratchTable(name)}}
}

// TestEditRejectedWhole: an edit script or configuration the device
// cannot run is refused whole — an op that names an unknown table, a
// result that fails validation, a stage on a TSP the device lacks, a TSP
// assigned to no stage the config defines, an ingress stage that is not
// before every egress stage — and leaves the
// running config, the epoch, the audit trail, the table list and
// forwarding as they were, so the next edit commits.
func TestEditRejectedWhole(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	forwards := func(what string) {
		t.Helper()
		p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
		if err != nil || p.Drop {
			t.Fatalf("%s: forwarding broken: err=%v drop=%v", what, err, p.Drop)
		}
	}
	// moveNexthop re-adds the nexthop stage, under a new name, on TSP tsp.
	moveNexthop := func(tsp int) []ctrlplane.EditOp {
		spec := *sw.Config().Stages["nexthop"]
		spec.Name = "nexthop_moved"
		return []ctrlplane.EditOp{
			{Kind: "delete_stage", Stage: "nexthop"},
			{Kind: "set_stage", Stage: "nexthop_moved", Spec: &spec, TSP: tsp, Position: -1},
		}
	}
	edit := func(ops ...ctrlplane.EditOp) func() error {
		return func() error { _, err := sw.Edit(ops); return err }
	}
	applyEdited := func(change func(cfg *template.Config)) func() error {
		return func() error {
			cfg, err := sw.Config().Clone()
			if err != nil {
				t.Fatal(err)
			}
			change(cfg)
			_, err = sw.ApplyConfig(cfg)
			return err
		}
	}
	hash, seq := configHash(sw.Config()), sw.tel.Events.LastSeq()
	epoch, _, _ := sw.EpochStats()
	tables := sw.ListTables()
	for _, c := range []struct {
		name, want string
		apply      func() error
	}{
		{"delete of an unknown table", "no table", edit(ctrlplane.EditOp{Kind: "delete_table", Table: "ghost"})},
		{"delete of a table a stage uses", "validate", edit(ctrlplane.EditOp{Kind: "delete_table", Table: "dmac_tbl"})},
		{"edit onto TSP 99", "outside", edit(moveNexthop(99)...)},
		{"edit onto TSP -1", "outside", edit(moveNexthop(-1)...)},
		{"apply_config onto TSP 99", "outside", applyEdited(func(cfg *template.Config) {
			cfg.TSPAssignment["nexthop"] = 99
		})},
		{"apply_config placing an unknown stage", "unknown stage", applyEdited(func(cfg *template.Config) {
			cfg.TSPAssignment["ghost"] = 3
		})},
		// The egress stages l2_l3_rewrite and dmac sit on the last TSP, 15.
		{"edit onto the egress stages' TSP", `ingress stage "nexthop_moved" on TSP 15 is not before egress stage "l2_l3_rewrite" on TSP 15`,
			edit(moveNexthop(15)...)},
		{"apply_config of the first ingress stage onto the last TSP", `ingress stage "port_map" on TSP 15 is not before egress stage "l2_l3_rewrite" on TSP 15`,
			applyEdited(func(cfg *template.Config) {
				cfg.TSPAssignment[cfg.IngressChain[0]] = 15
				cfg.Tables["scratch"] = scratchTable("scratch")
			})},
	} {
		if err := c.apply(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want %q", c.name, err, c.want)
		}
		e, _, _ := sw.EpochStats()
		if got := configHash(sw.Config()); got != hash || e != epoch || sw.tel.Events.LastSeq() != seq {
			t.Errorf("%s touched the device: config %s -> %s, epoch %d -> %d, events %d -> %d",
				c.name, hash, got, epoch, e, seq, sw.tel.Events.LastSeq())
		}
		if got := sw.ListTables(); !reflect.DeepEqual(got, tables) {
			t.Errorf("%s changed the table list:\n got %+v\nwant %+v", c.name, got, tables)
		}
		forwards(c.name)
	}
	// Nothing a refusal left behind blocks the next edit.
	if st, err := sw.Edit(setScratch("scratch_after")); err != nil || st.Epoch != epoch+1 {
		t.Fatalf("edit after the refusals: err=%v, want epoch %d committed", err, epoch+1)
	}
	// The same move onto a TSP the device has commits and forwards.
	if _, err := sw.Edit(moveNexthop(5)); err != nil {
		t.Fatal(err)
	}
	forwards("edit onto TSP 5")
}

// TestEditLeavesNoSession: a client that disconnects halfway through an
// edit request leaves nothing behind on the device. The next client's
// edit commits exactly its own ops, as one epoch.
func TestEditLeavesNoSession(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	addr := ccmListener(t, sw)
	epoch, _, _ := sw.EpochStats()

	req, err := json.Marshal(&ctrlplane.Request{Op: ctrlplane.OpEdit, Edits: setScratch("scratch_a")})
	if err != nil {
		t.Fatal(err)
	}
	// Client A is served (its ping is answered), then sends half of an
	// edit and hangs up.
	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte(`{"op":"ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(a).Decode(new(ctrlplane.Response)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(req[:len(req)/2]); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := ctrlplane.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Edit(setScratch("scratch_b")); err != nil {
		t.Fatalf("client B's edit: %v", err)
	}
	tables := sw.Config().Tables
	if _, ok := tables["scratch_b"]; !ok {
		t.Error("client B's table is missing")
	}
	if _, ok := tables["scratch_a"]; ok {
		t.Error("client A's half-sent table was committed")
	}
	if e, _, _ := sw.EpochStats(); e != epoch+1 {
		t.Errorf("epoch %d -> %d, want one publish", epoch, e)
	}
}

// TestConcurrentEdits: edits from eight clients at once each read,
// modify and publish the running config under the device's lock, so
// none is lost to another's publish.
func TestConcurrentEdits(t *testing.T) {
	const clients = 8
	sw, _ := newBaseSwitch(t)
	addr := ccmListener(t, sw)
	epoch, _, _ := sw.EpochStats()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			cl, err := ctrlplane.Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.Edit(setScratch(name)); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}(fmt.Sprintf("concurrent_%d", i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < clients; i++ {
		if _, ok := sw.Config().Tables[fmt.Sprintf("concurrent_%d", i)]; !ok {
			t.Errorf("table concurrent_%d lost", i)
		}
	}
	if e, _, _ := sw.EpochStats(); e != epoch+clients {
		t.Errorf("epoch %d -> %d, want %d publishes", epoch, e, clients)
	}
}
