// rp4ctl is the controller CLI: it talks to a running switch's control
// channel to load configurations, write table entries and read state —
// the command-line interface the paper's controller exposes for loading
// and offloading functions at runtime.
//
// Usage:
//
//	rp4ctl -addr 127.0.0.1:9901 ping
//	rp4ctl -addr ... apply config.json
//	rp4ctl -addr ... edit script.json
//	rp4ctl -addr ... tables
//	rp4ctl -addr ... stats
//	rp4ctl -addr ... metrics [-grep pattern]
//	rp4ctl -addr ... trace [max]
//	rp4ctl -addr ... flows [records] [max]
//	rp4ctl -addr ... hh [max]
//	rp4ctl -addr ... drops [max]
//	rp4ctl -addr ... int report [max]
//	rp4ctl -addr ... events [max]
//	rp4ctl -addr ... health [window]
//	rp4ctl -addr ... show <view> [max|window]
//	rp4ctl -addr ... top [interval]
//	rp4ctl -addr ... table-stats <table>
//	rp4ctl -addr ... read-register <name> <index>
//	rp4ctl -addr ... insert <table> <tag> key=<v>[,<v>...] [params=<v>,...] [prefix=<n>] [prio=<n>]
//	rp4ctl -addr ... delete <table> <handle>
//
// Values are Go-syntax integers (0x.. hex ok); 16-byte values (IPv6
// addresses) are given as 32 hex digits. On a selector (ECMP) table,
// insert adds a member to the group key= names and prints the member's
// handle, which delete takes to remove that member.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/template"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9901", "device control channel address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cl, err := ctrlplane.Dial(*addr, 3*time.Second)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	if r, rest, ok := lookupRead(args); ok {
		q, err := r.query(rest)
		if err != nil {
			fatal(err)
		}
		var payload json.RawMessage
		if err := cl.View(r.view, q, &payload); err != nil {
			fatal(err)
		}
		if err := r.render(os.Stdout, payload, rest); err == errUsage {
			usage()
		} else if err != nil {
			fatal(err)
		}
		return
	}
	switch args[0] {
	case "ping":
		if err := cl.Ping(); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case "apply":
		need(args, 2)
		b, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		cfg, err := template.Unmarshal(b)
		if err != nil {
			fatal(err)
		}
		st, err := cl.ApplyConfig(cfg)
		if err != nil {
			fatal(err)
		}
		printApply(st)
	case "int":
		need(args, 2)
		switch args[1] {
		case "enable":
			if err := cl.IntEnable(); err != nil {
				fatal(err)
			}
		case "disable":
			if err := cl.IntDisable(); err != nil {
				fatal(err)
			}
		default:
			usage()
		}
		fmt.Println("ok")
	case "edit":
		need(args, 2)
		b, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		var ops []ctrlplane.EditOp
		if err := json.Unmarshal(b, &ops); err != nil {
			fatal(fmt.Errorf("edit script %s: %w", args[1], err))
		}
		st, err := cl.Edit(ops)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("committed %d ops\n", len(ops))
		printApply(st)
	case "top":
		interval := time.Second
		if len(args) > 1 {
			var err error
			if interval, err = time.ParseDuration(args[1]); err != nil {
				fatal(fmt.Errorf("bad interval %q: %w", args[1], err))
			}
		}
		top(*addr, cl, interval, 0)
	case "table-stats":
		need(args, 2)
		st, err := cl.TableStats(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	case "read-register":
		need(args, 3)
		idx, err := strconv.ParseUint(args[2], 0, 64)
		if err != nil {
			fatal(err)
		}
		v, err := cl.ReadRegister(args[1], idx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(v)
	case "delete":
		need(args, 3)
		h, err := strconv.Atoi(args[2])
		if err != nil {
			fatal(err)
		}
		if err := cl.DeleteEntry(args[1], h); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case "insert":
		need(args, 4)
		req, err := parseEntry(args[1:])
		if err != nil {
			fatal(err)
		}
		h, err := cl.InsertEntry(*req)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("handle=%d\n", h)
	default:
		usage()
	}
}

// printApply renders apply/commit stats: epoch bookkeeping from ipbm,
// load (drain and rebuild) time from a device that drains (pisabm).
func printApply(st *ctrlplane.ApplyStats) {
	line := fmt.Sprintf("applied: full=%v tsps_written=%d tables +%d -%d",
		st.Full, st.TSPsWritten, st.TablesCreated, st.TablesDropped)
	if st.Hitless {
		line += fmt.Sprintf(" epoch=%d stages=%d+%d_reused hitless load=%.2fms",
			st.Epoch, st.StagesRecompiled, st.StagesReused, float64(st.LoadNanos)/1e6)
	} else {
		line += fmt.Sprintf(" load=%.2fms", float64(st.LoadNanos)/1e6)
	}
	fmt.Println(line)
}

func parseValues(s string) ([]ctrlplane.FieldValue, error) {
	var out []ctrlplane.FieldValue
	for _, part := range strings.Split(s, ",") {
		fv, err := parseValue(part)
		if err != nil {
			return nil, err
		}
		out = append(out, fv)
	}
	return out, nil
}

func parseValue(s string) (ctrlplane.FieldValue, error) {
	s = strings.TrimSpace(s)
	// 32 hex digits = a 16-byte field.
	if len(s) == 32 {
		if b, err := hex.DecodeString(s); err == nil {
			return ctrlplane.FieldValue{Bytes: b}, nil
		}
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return ctrlplane.FieldValue{}, fmt.Errorf("bad value %q: %w", s, err)
	}
	return ctrlplane.FieldValue{Value: v}, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 0, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseEntry(args []string) (*ctrlplane.EntryReq, error) {
	tag, err := strconv.Atoi(args[1])
	if err != nil {
		return nil, fmt.Errorf("bad tag %q", args[1])
	}
	req := &ctrlplane.EntryReq{Table: args[0], Tag: tag}
	for _, kv := range args[2:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("expected key=value, got %q", kv)
		}
		switch k {
		case "key":
			req.Keys, err = parseValues(v)
		case "params":
			req.Params, err = parseUints(v)
		case "prefix":
			req.PrefixLen, err = strconv.Atoi(v)
		case "prio":
			req.Priority, err = strconv.Atoi(v)
		case "high":
			req.High, err = parseValues(v)
		default:
			return nil, fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return req, nil
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: rp4ctl -addr HOST:PORT COMMAND
commands:
  ping
  apply CONFIG.json
  tables
  stats
  metrics [-grep PATTERN]
  trace [MAX]
  flows [MAX]             active flows, largest first
  flows records [MAX]     exported flow records (completed flows), oldest first
  hh [MAX]                estimated heavy hitters (live + evicted mass)
  drops [MAX]             sampled drop captures, newest first (reason, drop point, header hex)
  int enable|disable
  int report [MAX]
  events [MAX]
  show VIEW [MAX|WINDOW]  any device view as JSON (e.g. show rates 30s)
  edit SCRIPT.json        apply an edit script (JSON array of ops) as one hitless commit
  health [WINDOW]         one-shot self-diagnosis snapshot (e.g. health 30s)
  top [INTERVAL]          live refreshing operator view (default 1s refresh)
  table-stats TABLE
  read-register NAME INDEX
  insert TABLE TAG key=V[,V...] [params=V,...] [prefix=N] [prio=N] [high=V,...]
                          (on a selector, key=GROUP adds a member)
  delete TABLE HANDLE`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rp4ctl:", err)
	os.Exit(1)
}
