package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/experiments"
	"ipsa/internal/ipbm"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/trafficgen"
	"ipsa/internal/tsp"
)

// inPort is where every workload's traffic enters (PopulateBase maps it).
const inPort = 1

// repoRoot finds the checkout: the driver runs the benchmark from the
// repository root, `go run .` and `go test` run it from bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "testdata", "base_l2l3.rp4")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("testdata/base_l2l3.rp4 not found: run from the repository root or from bench/")
}

// quietLogger keeps the switch's per-apply info lines out of the
// benchmark's output; errors still reach stderr.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

// bed is one configured switch with its controller side: the compiler
// workspace that produced its design and a CCM client/server pair on
// loopback, the only socket in the benchmark.
type bed struct {
	w    *workloadSpec
	sw   *ipbm.Switch
	ws   *backend.Workspace
	srv  *ctrlplane.Server
	cl   *ctrlplane.Client
	addr string // the CCM's loopback address
	dir  string

	setup   time.Duration
	bulkOps float64 // ipv4_host entries/s during the bulk load (0 when none)
	// nextKey hands out ipv4_host keys outside every flow's range for
	// the churn.
	nextKey uint64
}

func (b *bed) read(name string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(b.dir, name))
	return string(raw), err
}

func (b *bed) close() {
	if b.cl != nil {
		_ = b.cl.Close() // the server side is closed next; nothing to flush
	}
	if b.srv != nil {
		_ = b.srv.Close()
	}
	b.sw.Shutdown()
}

// newBed is the timed set-up: build the switch, bring up the CCM,
// compile the base design and the workload's scripts, apply the result
// and populate the tables, all through the controller's path. wrap lets
// the traced run put its timing decorator between the CCM and the
// switch.
func newBed(w *workloadSpec, exec tsp.ExecMode, wrap func(*ipbm.Switch) ctrlplane.Device) (*bed, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, "testdata")
	start := time.Now()
	opts := ipbm.DefaultOptions()
	opts.Exec = exec
	opts.Logger = quietLogger()
	sw, err := ipbm.New(opts)
	if err != nil {
		return nil, err
	}
	b := &bed{w: w, sw: sw, dir: dir, nextKey: 0x0B800000}
	var dev ctrlplane.Device = sw
	if wrap != nil {
		dev = wrap(sw)
	}
	b.srv = ctrlplane.NewServer(dev, opts.Logger)
	if b.addr, err = b.srv.Listen("127.0.0.1:0"); err != nil {
		b.close()
		return nil, err
	}
	if b.cl, err = ctrlplane.Dial(b.addr, 5*time.Second); err != nil {
		b.close()
		return nil, err
	}
	if err := b.install(); err != nil {
		b.close()
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	b.setup = time.Since(start)
	return b, nil
}

func (b *bed) install() error {
	src, err := b.read("base_l2l3.rp4")
	if err != nil {
		return err
	}
	prog, err := parser.Parse("base_l2l3.rp4", src)
	if err != nil {
		return err
	}
	copts := backend.DefaultOptions()
	copts.NumTSPs = 16
	if b.ws, err = backend.NewWorkspace(prog, copts); err != nil {
		return err
	}
	for _, name := range b.w.scripts {
		script, err := b.read(name)
		if err != nil {
			return err
		}
		if _, err := b.ws.ApplyScript(script, b.read); err != nil {
			return err
		}
	}
	cfg := b.ws.Current().Config
	if _, err := b.cl.ApplyConfig(cfg); err != nil {
		return err
	}
	if err := experiments.PopulateBase(b.cl, cfg, b.w.filler); err != nil {
		return err
	}
	if err := experiments.PopulateUseCase(b.cl, b.w.useCase, b.w.filler); err != nil {
		return err
	}
	type fv = ctrlplane.FieldValue
	base := uint64(binary.BigEndian.Uint32(b.w.v4Base[:]))
	if b.w.host > 0 {
		t0 := time.Now()
		for i := 0; i < b.w.host; i++ {
			if _, err := b.cl.InsertEntry(ctrlplane.EntryReq{
				Table: "ipv4_host", Keys: []fv{{Value: 1}, {Value: base + uint64(i)}},
				Tag: 1, Params: []uint64{7},
			}); err != nil {
				return err
			}
		}
		b.bulkOps = float64(b.w.host) / time.Since(t0).Seconds()
	}
	for i := 0; i < b.w.lpm; i++ {
		if _, err := b.cl.InsertEntry(ctrlplane.EntryReq{
			Table: "ipv4_lpm", Keys: []fv{{Value: uint64(0x0D000000 + i<<8)}}, PrefixLen: 24,
			Tag: 1, Params: []uint64{7},
		}); err != nil {
			return err
		}
	}
	// PopulateUseCase already installed filler probes; the rest match the
	// first flows (src 10.0.0.1 is trafficgen's fixed IPv4 source).
	for i := b.w.filler; i < b.w.probe; i++ {
		if _, err := b.cl.InsertEntry(ctrlplane.EntryReq{
			Table: "flow_probe", Keys: []fv{{Value: 0x0A000001}, {Value: base + uint64(i)}},
			Tag: 1, Params: []uint64{uint64(i % 1024), 1 << 30},
		}); err != nil {
			return err
		}
	}
	return nil
}

// traffic is a workload's generated input: one pristine frame per flow
// and size, the seeded order they are sent in, and what the oracle says
// must come out for each.
type traffic struct {
	variants [][]byte   // pristine frames, size-major: variants[size*flows+flow]
	order    []uint32   // seeded sequence of variant indexes, cycled
	expect   []expected // per variant
	flows    int
	maxLen   int
}

type expected struct {
	port int
	data []byte
}

func newTraffic(w *workloadSpec, seed int64) (*traffic, error) {
	tr := &traffic{flows: w.flows}
	for _, sz := range w.sizes {
		cfg := trafficgen.DefaultConfig()
		cfg.Profile = w.profile
		cfg.Flows = w.flows
		cfg.PayloadLen = sz.payload
		cfg.V4Base = w.v4Base
		cfg.RouterMAC, cfg.HostMAC = experiments.RouterMAC, experiments.HostMAC
		cfg.Seed = seed
		gen, err := trafficgen.New(cfg)
		if err != nil {
			return nil, err
		}
		tr.variants = append(tr.variants, gen.FlowPackets()...)
	}
	for _, v := range tr.variants {
		if len(v) > tr.maxLen {
			tr.maxLen = len(v)
		}
	}
	// Flows are visited as a seeded permutation, cycled, so every flow
	// carries the same share; each visit draws its size by weight.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(w.flows)
	var sizeOf []int
	for i, sz := range w.sizes {
		for k := 0; k < sz.weight; k++ {
			sizeOf = append(sizeOf, i)
		}
	}
	n := w.flows * ((1<<16 + w.flows - 1) / w.flows)
	tr.order = make([]uint32, n)
	for k := range tr.order {
		tr.order[k] = uint32(sizeOf[rng.Intn(len(sizeOf))]*w.flows + perm[k%w.flows])
	}
	return tr, nil
}

// frame copies sequence element k into buf and returns the frame.
func (tr *traffic) frame(k int, buf []byte) []byte {
	src := tr.variants[tr.order[k%len(tr.order)]]
	return buf[:copy(buf, src)]
}

// TCP sequence field of an IPv4 frame without options: the port
// workloads carry a frame's ring slot there (the L3 rewrite never
// touches it), so the oracle comparison masks it.
const seqOff, seqEnd = pkt.EthernetLen + 20 + 4, pkt.EthernetLen + 20 + 8

// flowOf recovers a delivered frame's flow index from its destination
// address (trafficgen puts the flow number in its low 16 bits).
func flowOf(d []byte) int {
	if len(d) < 54 {
		return -1
	}
	switch binary.BigEndian.Uint16(d[12:14]) {
	case pkt.EtherTypeIPv4:
		return int(binary.BigEndian.Uint16(d[32:34]))
	case pkt.EtherTypeIPv6:
		return int(binary.BigEndian.Uint16(d[52:54]))
	}
	return -1
}

// check reports whether a frame seen at egress port is byte for byte
// what the oracle produced for its flow and size.
func (tr *traffic) check(d []byte, port int, maskSeq bool) bool {
	f := flowOf(d)
	if f < 0 || f >= tr.flows {
		return false
	}
	for v := f; v < len(tr.expect); v += tr.flows {
		e := &tr.expect[v]
		if len(e.data) != len(d) {
			continue
		}
		if e.port != port {
			return false
		}
		if maskSeq {
			return bytes.Equal(d[:seqOff], e.data[:seqOff]) && bytes.Equal(d[seqEnd:], e.data[seqEnd:])
		}
		return bytes.Equal(d, e.data)
	}
	return false
}

// oracleCheck builds the expected outputs on an interpreter-tier switch
// set up exactly like the measured one, then requires the measured
// switch to produce the same bytes and out-port for the first 1024
// frames of the sequence. It returns the egress ports the traffic uses.
func oracleCheck(b *bed, tr *traffic) ([]int, error) {
	ob, err := newBed(b.w, tsp.ExecInterp, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer ob.close()
	tr.expect = make([]expected, len(tr.variants))
	seen := map[int]bool{}
	var ports []int
	for v, raw := range tr.variants {
		p, err := ob.sw.ProcessPacket(append([]byte(nil), raw...), inPort)
		if err != nil {
			return nil, fmt.Errorf("oracle: variant %d: %w", v, err)
		}
		if p.Drop || p.OutPort < 0 || p.OutPort >= ob.sw.Ports().Len() {
			return nil, fmt.Errorf("oracle: variant %d is not forwarded (drop=%v out=%d): the workload must not lose frames by design", v, p.Drop, p.OutPort)
		}
		tr.expect[v] = expected{port: p.OutPort, data: append([]byte(nil), p.Data...)}
		if !seen[p.OutPort] {
			seen[p.OutPort] = true
			ports = append(ports, p.OutPort)
		}
	}
	buf := make([]byte, tr.maxLen)
	for k := 0; k < 1024; k++ {
		p, err := b.sw.ProcessPacket(tr.frame(k, buf), inPort)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", k, err)
		}
		if p.Drop || !tr.check(p.Data, p.OutPort, false) {
			return nil, fmt.Errorf("frame %d: measured switch disagrees with the interpreter oracle (drop=%v out=%d)", k, p.Drop, p.OutPort)
		}
	}
	return ports, nil
}
