package ctrlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

func testTable() *template.Table {
	return &template.Table{
		Name: "t", Kind: "exact", KeyWidth: 48, Size: 16,
		Keys: []template.KeySel{
			{Name: "meta.a", Kind: "exact", Operand: template.Operand{Kind: template.OpdMeta, BitOff: 0, Width: 16}},
			{Name: "h.b", Kind: "exact", Operand: template.Operand{Kind: template.OpdHeader, BitOff: 0, Width: 32}},
		},
	}
}

func TestEncodeKey(t *testing.T) {
	tbl := testTable()
	key, err := EncodeKey(tbl, []FieldValue{{Value: 0x1234}, {Value: 0xAABBCCDD}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x12, 0x34, 0xAA, 0xBB, 0xCC, 0xDD}
	if string(key) != string(want) {
		t.Errorf("key = %x, want %x", key, want)
	}
	if _, err := EncodeKey(tbl, []FieldValue{{Value: 1}}); err == nil {
		t.Error("wrong key count accepted")
	}
	// Wide field via bytes.
	wide := &template.Table{
		Name: "w", Kind: "exact", KeyWidth: 128, Size: 4,
		Keys: []template.KeySel{{Name: "x", Operand: template.Operand{Kind: template.OpdHeader, Width: 128}}},
	}
	if _, err := EncodeKey(wide, []FieldValue{{Value: 1}}); err == nil {
		t.Error("wide field without bytes accepted")
	}
	addr := make([]byte, 16)
	addr[15] = 9
	key, err = EncodeKey(wide, []FieldValue{{Bytes: addr}})
	if err != nil || key[15] != 9 {
		t.Errorf("wide key: %x, %v", key, err)
	}
	if _, err := EncodeKey(wide, []FieldValue{{Bytes: addr[:8]}}); err == nil {
		t.Error("short bytes accepted")
	}
}

func TestEncodeEntryKinds(t *testing.T) {
	// LPM.
	lpm := &template.Table{Name: "l", Kind: "lpm", KeyWidth: 32, Size: 4,
		Keys: []template.KeySel{{Name: "d", Kind: "lpm", Operand: template.Operand{Kind: template.OpdHeader, Width: 32}}}}
	e, err := EncodeEntry(lpm, EntryReq{Table: "l", Keys: []FieldValue{{Value: 0x0A000000}}, PrefixLen: 8, Tag: 1})
	if err != nil || e.PrefixLen != 8 || e.ActionID != 1 {
		t.Errorf("lpm entry: %+v, %v", e, err)
	}
	if _, err := EncodeEntry(lpm, EntryReq{Table: "l", Keys: []FieldValue{{Value: 1}}, PrefixLen: 40}); err == nil {
		t.Error("oversized prefix accepted")
	}
	// Ternary with partial masks.
	tern := &template.Table{Name: "t", Kind: "ternary", KeyWidth: 16, Size: 4,
		Keys: []template.KeySel{
			{Name: "a", Kind: "ternary", Operand: template.Operand{Kind: template.OpdMeta, Width: 8}},
			{Name: "b", Kind: "ternary", Operand: template.Operand{Kind: template.OpdMeta, BitOff: 8, Width: 8}},
		}}
	e, err = EncodeEntry(tern, EntryReq{Table: "t",
		Keys: []FieldValue{{Value: 0x12, Mask: &FieldMask{Value: 0xF0}}, {Value: 0x34}}, Priority: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mask[0] != 0xF0 || e.Mask[1] != 0xFF || e.Priority != 3 {
		t.Errorf("ternary entry: mask %x prio %d", e.Mask, e.Priority)
	}
	// Range.
	rng := &template.Table{Name: "r", Kind: "range", KeyWidth: 16, Size: 4,
		Keys: []template.KeySel{{Name: "p", Kind: "range", Operand: template.Operand{Kind: template.OpdMeta, Width: 16}}}}
	e, err = EncodeEntry(rng, EntryReq{Table: "r",
		Keys: []FieldValue{{Value: 80}}, High: []FieldValue{{Value: 90}}})
	if err != nil || e.High[1] != 90 {
		t.Errorf("range entry: %+v, %v", e, err)
	}
	if _, err := EncodeEntry(rng, EntryReq{Table: "r", Keys: []FieldValue{{Value: 80}}}); err == nil {
		t.Error("range without high accepted")
	}
	// Unknown kind.
	bad := &template.Table{Name: "x", Kind: "fuzzy", KeyWidth: 8, Size: 1,
		Keys: []template.KeySel{{Name: "k", Operand: template.Operand{Width: 8}}}}
	if _, err := EncodeEntry(bad, EntryReq{Table: "x", Keys: []FieldValue{{Value: 1}}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestEncodeGroupKey: a selector's entry is a member, keyed by its group
// alone; the hashed fields are no part of it.
func TestEncodeGroupKey(t *testing.T) {
	sel := &template.Table{Name: "s", Kind: "hash", KeyWidth: 64, Size: 4, IsSelector: true,
		Keys: []template.KeySel{
			{Name: "g", Kind: "hash", Operand: template.Operand{Kind: template.OpdMeta, Width: 32}},
			{Name: "h", Kind: "hash", Operand: template.Operand{Kind: template.OpdHeader, Width: 32}},
		}}
	g, err := EncodeGroupKey(sel, FieldValue{Value: 7})
	if err != nil || len(g) != 4 || g[3] != 7 {
		t.Errorf("group key: %x, %v", g, err)
	}
	plain := testTable()
	if _, err := EncodeGroupKey(plain, FieldValue{Value: 1}); err == nil {
		t.Error("non-selector accepted")
	}
	e, err := EncodeEntry(sel, EntryReq{Table: "s", Keys: []FieldValue{{Value: 7}}, Tag: 1, Params: []uint64{9}})
	if err != nil || string(e.Key) != string(g) || e.ActionID != 1 || e.Params[0] != 9 {
		t.Errorf("member entry: %+v, %v", e, err)
	}
	for _, keys := range [][]FieldValue{nil, {{Value: 7}, {Value: 1}}} {
		if _, err := EncodeEntry(sel, EntryReq{Table: "s", Keys: keys}); err == nil {
			t.Errorf("member with %d key fields accepted", len(keys))
		}
	}
}

// fakeDevice implements Device for protocol tests.
type fakeDevice struct {
	mu      sync.Mutex
	entries int
	applied int
	regs    map[string]uint64
}

func (d *fakeDevice) ApplyConfig(cfg *template.Config) (*ApplyStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applied++
	return &ApplyStats{Full: d.applied == 1, TSPsWritten: len(cfg.Stages)}, nil
}

func (d *fakeDevice) InsertEntry(req EntryReq) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if req.Table == "" {
		return 0, errors.New("no table")
	}
	d.entries++
	return d.entries, nil
}

func (d *fakeDevice) DeleteEntry(table string, handle int) error {
	if handle <= 0 {
		return fmt.Errorf("bad handle %d", handle)
	}
	return nil
}

func (d *fakeDevice) TableStats(table string) (*TableStats, error) {
	if table != "t" {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	return &TableStats{Hits: 5, Misses: 2}, nil
}

func (d *fakeDevice) ReadRegister(name string, index uint64) (uint64, error) {
	v, ok := d.regs[name]
	if !ok {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	return v + index, nil
}

var errNoEdits = errors.New("no edit scripts")

func (d *fakeDevice) SetInt(bool) error                  { return errors.New("no INT") }
func (d *fakeDevice) Edit([]EditOp) (*ApplyStats, error) { return nil, errNoEdits }

func (d *fakeDevice) Views() *telemetry.Views {
	v := telemetry.NewViews()
	v.Add("tables", func(telemetry.Query) any {
		d.mu.Lock()
		defer d.mu.Unlock()
		return []TableStatus{{Name: "t", Kind: "exact", Entries: d.entries}}
	})
	v.Add("stats", func(q telemetry.Query) any {
		return &DeviceStats{Processed: uint64(q.Max), StallNanos: int64(q.Window), ActiveTSPs: 7}
	})
	return v
}

func TestClientServerRoundTrip(t *testing.T) {
	dev := &fakeDevice{regs: map[string]uint64{"r": 40}}
	srv := NewServer(dev, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	st, err := cl.ApplyConfig(&template.Config{})
	if err != nil || !st.Full {
		t.Fatalf("apply: %+v, %v", st, err)
	}
	h, err := cl.InsertEntry(EntryReq{Table: "t", Tag: 1})
	if err != nil || h != 1 {
		t.Fatalf("insert: %d, %v", h, err)
	}
	if _, err := cl.InsertEntry(EntryReq{}); err == nil {
		t.Error("device error not surfaced")
	}
	if err := cl.DeleteEntry("t", 1); err != nil {
		t.Fatal(err)
	}
	var tables []TableStatus
	if err := cl.View("tables", telemetry.Query{}, &tables); err != nil || len(tables) != 1 || tables[0].Entries != 1 {
		t.Fatalf("tables: %+v, %v", tables, err)
	}
	ts, err := cl.TableStats("t")
	if err != nil || ts.Hits != 5 {
		t.Fatalf("stats: %+v, %v", ts, err)
	}
	if _, err := cl.TableStats("ghost"); err == nil {
		t.Error("unknown table stats accepted")
	}
	v, err := cl.ReadRegister("r", 2)
	if err != nil || v != 42 {
		t.Fatalf("register: %d, %v", v, err)
	}
	// The view op carries its query to the view.
	var ds DeviceStats
	err = cl.View("stats", telemetry.Query{Max: 100, Window: time.Second}, &ds)
	if err != nil || ds.Processed != 100 || ds.StallNanos != int64(time.Second) || ds.ActiveTSPs != 7 {
		t.Fatalf("device stats: %+v, %v", ds, err)
	}
	if err := cl.View("ghost", telemetry.Query{}, &ds); err == nil || !strings.Contains(err.Error(), "have stats, tables") {
		t.Errorf("unknown view: %v", err)
	}
	if err := cl.IntEnable(); err == nil {
		t.Error("device INT error not surfaced")
	}
}

func TestServerHandlesConcurrentClients(t *testing.T) {
	dev := &fakeDevice{regs: map[string]uint64{}}
	srv := NewServer(dev, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < 20; j++ {
				if _, err := cl.InsertEntry(EntryReq{Table: "t"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if dev.entries != 160 {
		t.Errorf("entries = %d", dev.entries)
	}
}

// TestRequestSizeBound: a request may read at most maxRequestBytes from
// its connection. One of exactly that size is answered; one byte more
// and the server closes the connection without answering, while a fresh
// connection still answers ping.
func TestRequestSizeBound(t *testing.T) {
	srv := NewServer(&fakeDevice{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// ping is answered whatever else the request carries, so the padding
	// rides an unused field.
	ping := func(size int) []byte {
		head, tail := `{"op":"ping","table":"`, `"}`
		return []byte(head + strings.Repeat("x", size-len(head)-len(tail)) + tail)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ping(maxRequestBytes)); err != nil {
		t.Fatal(err)
	}
	var resp Response
	dec := json.NewDecoder(conn)
	if err := dec.Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("request of exactly the bound: %+v, %v", resp, err)
	}
	// The server stops reading at the bound and closes, so the tail of
	// this write may meet a reset; only the missing answer matters.
	go conn.Write(ping(maxRequestBytes + 1))
	if err := dec.Decode(&resp); err == nil {
		t.Fatalf("request over the bound was answered: %+v", resp)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection left open after a request over the bound")
	}
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("fresh connection after an oversized request: %v", err)
	}
}

func TestHandleUnknownAndMalformed(t *testing.T) {
	srv := NewServer(&fakeDevice{}, nil)
	if r := srv.Handle(&Request{Op: "bogus"}); r.OK {
		t.Error("bogus op succeeded")
	}
	if r := srv.Handle(&Request{Op: OpApplyConfig}); r.OK {
		t.Error("apply without config succeeded")
	}
	if r := srv.Handle(&Request{Op: OpInsertEntry}); r.OK {
		t.Error("insert without entry succeeded")
	}
	for _, ops := range [][]EditOp{nil, {}} {
		if r := srv.Handle(&Request{Op: OpEdit, Edits: ops}); r.OK || !strings.Contains(r.Error, "without ops") {
			t.Errorf("edit with ops %#v answered %+v", ops, r)
		}
	}
	if r := srv.Handle(&Request{Op: OpView}); r.OK {
		t.Error("view without a name succeeded")
	}
}
