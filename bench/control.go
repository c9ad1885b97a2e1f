package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/ipbm"
	"ipsa/internal/template"
)

// unloadACL is the bench-owned inverse of testdata/acl.script.
const unloadACL = "unload --func_name acl\nadd_link port_map bd_vrf\n"

// The in-situ update reconfig_storm times is loading the ACL function
// (acl.script): its table misses for all generated traffic, so frames
// forwarded between the commit and the table's population still leave
// exactly as the oracle says. ecmp.script cannot be cycled under live
// traffic with a zero-loss gate: its selector tables are empty between
// commit and AddMember, and routed frames in that gap are dropped by
// the design itself.

// controller is the control plane of one bed: it owns the compiler
// workspace and talks to the switch only through the CCM client.
type controller struct {
	b   *bed
	tr  *tracer
	dev *timedDevice // nil on the untraced run

	aclScript string
	loaded    bool

	updates   int       // updates acked (loads and unloads)
	updateMs  []float64 // per load: script text in -> compiled -> commit acked -> acl_tbl populated
	compileMs []float64 // Workspace.ApplyScript, loads and unloads
	rpcMs     []float64 // Client.ApplyConfig wall time
	lastApply *ctrlplane.ApplyStats
	churnRate []float64 // per churn round: inserts+deletes per second
}

func newController(b *bed, tr *tracer, dev *timedDevice) (*controller, error) {
	script, err := b.read("acl.script")
	if err != nil {
		return nil, err
	}
	return &controller{b: b, tr: tr, dev: dev, aclScript: script}, nil
}

// update runs one in-situ update end to end: load the ACL function, or
// unload it when it is loaded. Any refusal fails the run.
func (c *controller) update() error {
	script, name := c.aclScript, "update.load"
	if c.loaded {
		script, name = unloadACL, "update.unload"
	}
	id := c.tr.id()
	t0 := time.Now()
	rep, err := c.b.ws.ApplyScript(script, c.b.read)
	if err != nil {
		return fmt.Errorf("update %d: compile: %w", c.updates, err)
	}
	t1 := time.Now()
	c.tr.add(id, id, "compiler.incr_compile", "compiler/rp4", t0, t1, 1)
	call, tc := c.rpcBegin(id)
	st, err := c.b.cl.ApplyConfig(rep.Config)
	c.rpcEnd(call, id, "ctrlplane.apply_config", tc)
	if err != nil {
		return fmt.Errorf("update %d: commit not acked: %w", c.updates, err)
	}
	if !st.Hitless {
		return fmt.Errorf("update %d: commit was not a hitless epoch publish", c.updates)
	}
	t2 := time.Now()
	if !c.loaded {
		for i := 0; i < aclEntries; i++ {
			call, tc := c.rpcBegin(id)
			_, err := c.b.cl.InsertEntry(ctrlplane.EntryReq{
				Table: "acl_tbl",
				Keys: []ctrlplane.FieldValue{
					{Value: 0xC0A80000 + uint64(i)}, // 192.168.0.i: no generated flow
					{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
					{Value: 0, Mask: &ctrlplane.FieldMask{Value: 0}},
				},
				Priority: i + 1, Tag: 1,
			})
			c.rpcEnd(call, id, "ctrlplane.insert_entry", tc)
			if err != nil {
				return fmt.Errorf("update %d: populate acl_tbl: %w", c.updates, err)
			}
		}
	}
	t3 := time.Now()
	c.tr.put(id, 0, id, name, "harness", t0, t3, 1)
	c.compileMs = append(c.compileMs, ms(t1.Sub(t0)))
	c.rpcMs = append(c.rpcMs, ms(t2.Sub(t1)))
	if !c.loaded {
		c.updateMs = append(c.updateMs, ms(t3.Sub(t0)))
	}
	c.lastApply = st
	c.loaded = !c.loaded
	c.updates++
	return nil
}

// rpcBegin opens a span for one client call under the update span and
// tells the timed device to nest the switch-side call inside it.
func (c *controller) rpcBegin(update int32) (int32, time.Time) {
	if c.tr == nil {
		return 0, time.Time{}
	}
	id := c.tr.id()
	c.dev.trace.Store(update)
	c.dev.parent.Store(id)
	return id, time.Now()
}

func (c *controller) rpcEnd(id, update int32, name string, t0 time.Time) {
	if c.tr == nil {
		return
	}
	c.tr.put(id, update, update, name, "ctrlplane", t0, time.Now(), 1)
	c.dev.parent.Store(0)
}

// churn inserts churnOps entries into ipv4_host and deletes them again,
// through cl, at whatever size the workload holds the table.
func (c *controller) churn(cl *ctrlplane.Client) error {
	handles := make([]int, 0, churnOps)
	id := c.tr.id()
	t0 := time.Now()
	for i := 0; i < churnOps; i++ {
		h, err := cl.InsertEntry(ctrlplane.EntryReq{
			Table: "ipv4_host",
			Keys:  []ctrlplane.FieldValue{{Value: 1}, {Value: c.b.nextKey}},
			Tag:   1, Params: []uint64{7},
		})
		if err != nil {
			return fmt.Errorf("churn insert: %w", err)
		}
		c.b.nextKey++
		handles = append(handles, h)
	}
	for _, h := range handles {
		if err := cl.DeleteEntry("ipv4_host", h); err != nil {
			return fmt.Errorf("churn delete: %w", err)
		}
	}
	t1 := time.Now()
	c.tr.put(id, 0, id, "table.churn", "harness", t0, t1, 2*churnOps)
	c.churnRate = append(c.churnRate, 2*churnOps/t1.Sub(t0).Seconds())
	return nil
}

// storm is the control plane of reconfig_storm, until stop closes: one
// in-situ update every stormPeriodMs, and beside it, on a CCM connection
// of its own, table churn at half duty (a round, then a pause as long
// as the round took). The two are deliberately not on one clock: every
// ipv4_host write republishes the table's whole snapshot, the garbage
// that makes is what paces the collector, and churn locked to the
// update ticker would decide run by run whether updates land inside a
// collection or beside it. The error, if any, is the run's failure.
func (c *controller) storm(stop <-chan struct{}) error {
	cl, err := ctrlplane.Dial(c.b.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	churned := make(chan error, 1)
	go func() {
		for {
			t0 := time.Now()
			if err := c.churn(cl); err != nil {
				churned <- err
				return
			}
			select {
			case <-stop:
				churned <- nil
				return
			case <-time.After(time.Since(t0)):
			}
		}
	}()
	tick := time.NewTicker(stormPeriodMs * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			err := <-churned
			if c.loaded && err == nil {
				err = c.update()
			}
			return err
		case err := <-churned:
			return err
		case <-tick.C:
		}
		if err := c.update(); err != nil {
			return err
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedDevice sits between the CCM server and the switch on the traced
// run and times the switch's exported control entry points from
// outside. Embedding keeps every optional CCM interface the switch
// implements.
type timedDevice struct {
	*ipbm.Switch
	tr *tracer
	// parent and trace are the client-side RPC span the server is
	// answering and its update; the controller sets them around each call
	// an update makes (one at a time). Set-up and churn leave no span.
	parent, trace atomic.Int32

	mu       sync.Mutex
	commitMs []float64
}

func (d *timedDevice) ApplyConfig(cfg *template.Config) (*ctrlplane.ApplyStats, error) {
	t0 := time.Now()
	st, err := d.Switch.ApplyConfig(cfg)
	t1 := time.Now()
	if p := d.parent.Load(); p != 0 {
		d.tr.add(p, d.trace.Load(), "ipbm.apply_config", "ipbm", t0, t1, 1)
		d.mu.Lock()
		d.commitMs = append(d.commitMs, ms(t1.Sub(t0)))
		d.mu.Unlock()
	}
	return st, err
}

func (d *timedDevice) InsertEntry(req ctrlplane.EntryReq) (int, error) {
	t0 := time.Now()
	h, err := d.Switch.InsertEntry(req)
	if p := d.parent.Load(); p != 0 && req.Table == "acl_tbl" {
		d.tr.add(p, d.trace.Load(), "ipbm.insert_entry", "match/mem", t0, time.Now(), 1)
	}
	return h, err
}
