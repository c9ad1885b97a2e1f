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
//	rp4ctl -addr ... health [window]
//	rp4ctl -addr ... top [interval]
//	rp4ctl -addr ... table-stats <table>
//	rp4ctl -addr ... read-register <name> <index>
//	rp4ctl -addr ... insert <table> <tag> key=<v>[,<v>...] [params=<v>,...] [prefix=<n>] [prio=<n>]
//	rp4ctl -addr ... add-member <table> <tag> group=<v> [params=<v>,...]
//
// Values are Go-syntax integers (0x.. hex ok); 16-byte values (IPv6
// addresses) are given as 32 hex digits.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// metricID renders a point's identity — name{label="v",...} — the text
// both printing and -grep filtering run against.
func metricID(p telemetry.MetricPoint) string {
	var labels []string
	for _, l := range p.Labels {
		labels = append(labels, fmt.Sprintf("%s=%q", l.Key, l.Value))
	}
	name := p.Name
	if len(labels) > 0 {
		name += "{" + strings.Join(labels, ",") + "}"
	}
	return name
}

// grepMetrics keeps the points whose rendered identity matches re.
func grepMetrics(points []telemetry.MetricPoint, re *regexp.Regexp) []telemetry.MetricPoint {
	var out []telemetry.MetricPoint
	for _, p := range points {
		if re.MatchString(metricID(p)) {
			out = append(out, p)
		}
	}
	return out
}

// printMetric renders one metrics-dump point, indented for grouping.
func printMetric(p telemetry.MetricPoint, indent string) {
	name := metricID(p)
	if p.Kind == "histogram" {
		line := fmt.Sprintf("%s%s count=%d sum=%.3fms", indent, name, p.Count, float64(p.SumNanos)/1e6)
		for _, q := range p.Quantiles {
			line += fmt.Sprintf(" p%g=%.3fms", q.Quantile*100, q.Nanos/1e6)
		}
		fmt.Println(line)
	} else {
		fmt.Printf("%s%s %g\n", indent, name, p.Value)
	}
}

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
	case "tables":
		tables, err := cl.ListTables()
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			kind := t.Kind
			if t.Selector {
				kind += "/selector"
			}
			fmt.Printf("%-20s %-14s key=%-4db size=%-6d entries=%d\n",
				t.Name, kind, t.KeyWidth, t.Size, t.Entries)
		}
	case "stats":
		st, err := cl.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("processed=%d dropped=%d to_cpu=%d active_tsps=%d template_loads=%d stall=%.3fms\n",
			st.Processed, st.Dropped, st.ToCPU, st.ActiveTSPs, st.TemplateLoads,
			float64(st.StallNanos)/1e6)
		for _, p := range st.Ports {
			fmt.Printf("port %-3d rx=%-8d tx=%-8d rx_drops=%-6d tx_drops=%d\n",
				p.Port, p.Received, p.Sent, p.RxDrops, p.TxDrops)
		}
	case "metrics":
		var re *regexp.Regexp
		if len(args) > 1 {
			if args[1] != "-grep" || len(args) < 3 {
				usage()
			}
			var err error
			if re, err = regexp.Compile(args[2]); err != nil {
				fatal(fmt.Errorf("bad -grep pattern: %w", err))
			}
		}
		points, err := cl.MetricsDump()
		if err != nil {
			fatal(err)
		}
		if re != nil {
			points = grepMetrics(points, re)
		}
		// Shard-labelled series render grouped per shard after the
		// switch-wide series, so the per-lane view reads as one block.
		shardOf := func(p telemetry.MetricPoint) (string, bool) {
			for _, l := range p.Labels {
				if l.Key == "shard" {
					return l.Value, true
				}
			}
			return "", false
		}
		byShard := make(map[string][]telemetry.MetricPoint)
		var shardOrder []string
		for _, p := range points {
			if sv, ok := shardOf(p); ok {
				if _, seen := byShard[sv]; !seen {
					shardOrder = append(shardOrder, sv)
				}
				byShard[sv] = append(byShard[sv], p)
				continue
			}
			printMetric(p, "")
		}
		sort.Slice(shardOrder, func(i, j int) bool {
			a, _ := strconv.Atoi(shardOrder[i])
			b, _ := strconv.Atoi(shardOrder[j])
			return a < b
		})
		for _, sv := range shardOrder {
			fmt.Printf("shard %s:\n", sv)
			for _, p := range byShard[sv] {
				printMetric(p, "  ")
			}
		}
	case "trace":
		max := 0
		if len(args) > 1 {
			var err error
			if max, err = strconv.Atoi(args[1]); err != nil {
				fatal(fmt.Errorf("bad max %q", args[1]))
			}
		}
		traces, err := cl.TraceDump(max)
		if err != nil {
			fatal(err)
		}
		for _, tr := range traces {
			head := fmt.Sprintf("#%d in=%d out=%d bytes=%d verdict=%s",
				tr.Seq, tr.InPort, tr.OutPort, tr.Bytes, tr.Verdict)
			if tr.Epoch > 0 {
				head += fmt.Sprintf(" epoch=%d", tr.Epoch)
			}
			fmt.Println(head)
			for _, h := range tr.Headers {
				fmt.Printf("  hdr %-14s off=%-4d len=%d\n", h.Name, h.Off, h.Len)
			}
			for _, st := range tr.Stages {
				line := fmt.Sprintf("  tsp%d/%s", st.TSP, st.Stage)
				if st.Applied {
					outcome := "miss"
					if st.Hit {
						outcome = fmt.Sprintf("hit tag=%d", st.Tag)
					}
					line += fmt.Sprintf(" table=%s %s", st.Table, outcome)
				}
				if st.Action != "" {
					line += " action=" + st.Action
					if st.Default {
						line += " (default)"
					}
				}
				fmt.Println(line)
			}
		}
	case "flows":
		rest := args[1:]
		records := false
		if len(rest) > 0 && rest[0] == "records" {
			records = true
			rest = rest[1:]
		}
		max := 0
		if len(rest) > 0 {
			var err error
			if max, err = strconv.Atoi(rest[0]); err != nil {
				fatal(fmt.Errorf("bad max %q", rest[0]))
			}
		}
		var recs []flowstat.Record
		var err error
		if records {
			recs, err = cl.FlowRecords(max)
		} else {
			recs, err = cl.FlowDump(max)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(renderFlows(recs))
	case "hh":
		max := 0
		if len(args) > 1 {
			var err error
			if max, err = strconv.Atoi(args[1]); err != nil {
				fatal(fmt.Errorf("bad max %q", args[1]))
			}
		}
		hh, err := cl.HHDump(max)
		if err != nil {
			fatal(err)
		}
		fmt.Print(renderHitters(hh))
	case "drops":
		max := 0
		if len(args) > 1 {
			var err error
			if max, err = strconv.Atoi(args[1]); err != nil {
				fatal(fmt.Errorf("bad max %q", args[1]))
			}
		}
		recs, err := cl.DropDump(max)
		if err != nil {
			fatal(err)
		}
		fmt.Print(renderDrops(recs))
	case "int":
		need(args, 2)
		switch args[1] {
		case "enable":
			if err := cl.IntEnable(); err != nil {
				fatal(err)
			}
			fmt.Println("ok")
		case "disable":
			if err := cl.IntDisable(); err != nil {
				fatal(err)
			}
			fmt.Println("ok")
		case "report":
			max := 0
			if len(args) > 2 {
				var err error
				if max, err = strconv.Atoi(args[2]); err != nil {
					fatal(fmt.Errorf("bad max %q", args[2]))
				}
			}
			reports, err := cl.IntReport(max)
			if err != nil {
				fatal(err)
			}
			for _, r := range reports {
				fmt.Printf("#%d in=%d out=%d bytes=%d path=%s\n",
					r.Seq, r.InPort, r.OutPort, r.Bytes, r.Path())
				for _, h := range r.Hops {
					stage := h.Stage
					if stage == "" {
						stage = fmt.Sprintf("stage#%04x", h.StageID)
					}
					fmt.Printf("  sw%d tsp%d %-16s latency=%-8s qdepth=%d\n",
						h.SwitchID, h.TSP, stage,
						fmt.Sprintf("%.3fus", float64(h.LatencyNanos)/1e3), h.QDepth)
				}
			}
		default:
			usage()
		}
	case "events":
		max := 0
		if len(args) > 1 {
			var err error
			if max, err = strconv.Atoi(args[1]); err != nil {
				fatal(fmt.Errorf("bad max %q", args[1]))
			}
		}
		events, err := cl.EventsDump(max)
		if err != nil {
			fatal(err)
		}
		for _, ev := range events {
			line := fmt.Sprintf("#%d %s", ev.Seq, ev.Kind)
			if ev.ConfigHash != "" {
				line += " cfg=" + ev.ConfigHash
			}
			if ev.Epoch > 0 {
				line += fmt.Sprintf(" epoch=%d", ev.Epoch)
			}
			if ev.TSPsWritten > 0 {
				line += fmt.Sprintf(" tsps=%d", ev.TSPsWritten)
			}
			if ev.TablesCreated > 0 || ev.TablesDropped > 0 {
				line += fmt.Sprintf(" tables=+%d/-%d", ev.TablesCreated, ev.TablesDropped)
			}
			if ev.StagesRecompiled > 0 || ev.StagesReused > 0 {
				line += fmt.Sprintf(" stages=%d+%d_reused", ev.StagesRecompiled, ev.StagesReused)
			}
			if ev.Hitless {
				line += " hitless"
			} else if ev.DrainNanos > 0 {
				line += fmt.Sprintf(" drain=%.3fms", float64(ev.DrainNanos)/1e6)
			}
			if ev.InFlight > 0 {
				line += fmt.Sprintf(" in_flight=%d", ev.InFlight)
			}
			if len(ev.VerdictDeltas) > 0 {
				var parts []string
				for k, v := range ev.VerdictDeltas {
					parts = append(parts, fmt.Sprintf("%s+%d", k, v))
				}
				line += " during_swap=" + strings.Join(parts, ",")
			}
			if ev.Detail != "" {
				line += " (" + ev.Detail + ")"
			}
			fmt.Println(line)
		}
	case "edit":
		need(args, 2)
		if args[1] == "abort" {
			if err := cl.EditAbort(); err != nil {
				fatal(err)
			}
			fmt.Println("aborted")
			break
		}
		b, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		var ops []ctrlplane.EditOp
		if err := json.Unmarshal(b, &ops); err != nil {
			fatal(fmt.Errorf("edit script %s: %w", args[1], err))
		}
		if len(ops) == 0 {
			fatal(fmt.Errorf("edit script %s has no ops", args[1]))
		}
		if err := cl.EditBegin(); err != nil {
			fatal(err)
		}
		for i, op := range ops {
			if err := cl.EditApply(op); err != nil {
				_ = cl.EditAbort()
				fatal(fmt.Errorf("op %d (%s): %w (transaction aborted)", i, op.Kind, err))
			}
		}
		st, err := cl.EditCommit()
		if err != nil {
			_ = cl.EditAbort()
			fatal(fmt.Errorf("commit: %w (transaction aborted)", err))
		}
		fmt.Printf("committed %d ops\n", st.Ops)
		if st.Apply != nil {
			printApply(st.Apply)
		}
	case "health":
		window := time.Duration(0)
		if len(args) > 1 {
			var err error
			if window, err = time.ParseDuration(args[1]); err != nil {
				fatal(fmt.Errorf("bad window %q: %w", args[1], err))
			}
		}
		st, err := cl.HealthQuery(window)
		if err != nil {
			fatal(err)
		}
		fmt.Print(renderStatus(st))
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
	case "add-member":
		need(args, 4)
		m, err := parseMember(args[1:])
		if err != nil {
			fatal(err)
		}
		if err := cl.AddMember(*m); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
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

func parseMember(args []string) (*ctrlplane.MemberReq, error) {
	tag, err := strconv.Atoi(args[1])
	if err != nil {
		return nil, fmt.Errorf("bad tag %q", args[1])
	}
	req := &ctrlplane.MemberReq{Table: args[0], Tag: tag}
	for _, kv := range args[2:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("expected key=value, got %q", kv)
		}
		switch k {
		case "group":
			fv, err := parseValue(v)
			if err != nil {
				return nil, err
			}
			req.Group = fv
		case "params":
			req.Params, err = parseUints(v)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown option %q", k)
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
  edit SCRIPT.json        apply an edit script (JSON array of ops) as one hitless commit
  edit abort              discard a stuck open transaction
  health [WINDOW]         one-shot self-diagnosis snapshot (e.g. health 30s)
  top [INTERVAL]          live refreshing operator view (default 1s refresh)
  table-stats TABLE
  read-register NAME INDEX
  insert TABLE TAG key=V[,V...] [params=V,...] [prefix=N] [prio=N] [high=V,...]
  delete TABLE HANDLE
  add-member TABLE TAG group=V [params=V,...]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rp4ctl:", err)
	os.Exit(1)
}
