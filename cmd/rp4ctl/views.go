package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/intmd"
	"ipsa/internal/telemetry"
)

// A read is one read subcommand: the device view it shows, the kind of
// its optional argument ("max" a count, "window" a duration, "either"
// for show) and how the payload prints. Every read subcommand is a row
// of reads; `show VIEW` prints any view as JSON.
type read struct {
	view   string
	arg    string
	render func(w io.Writer, payload json.RawMessage, args []string) error
}

// reads is keyed by the subcommand's words.
var reads = map[string]read{
	"tables":        {"tables", "", render(renderTables)},
	"stats":         {"stats", "", render(renderStats)},
	"metrics":       {"metrics", "", renderMetrics},
	"trace":         {"traces", "max", render(renderTraces)},
	"flows":         {"flows", "max", render(renderFlows)},
	"flows records": {"flow_records", "max", render(renderFlows)},
	"hh":            {"hh", "max", render(renderHitters)},
	"drops":         {"drops", "max", render(renderDrops)},
	"int report":    {"int", "max", render(renderReports)},
	"events":        {"events", "max", render(renderEvents)},
	"health":        {"health", "window", render(renderStatus)},
}

// lookupRead finds the row args name and returns it with the arguments
// that follow the subcommand's words.
func lookupRead(args []string) (read, []string, bool) {
	if len(args) > 1 {
		if args[0] == "show" {
			return read{args[1], "either", renderJSON}, args[2:], true
		}
		if r, ok := reads[args[0]+" "+args[1]]; ok {
			return r, args[2:], true
		}
	}
	r, ok := reads[args[0]]
	return r, args[1:], ok
}

// query parses a read's optional argument into the view's query.
func (r read) query(args []string) (q telemetry.Query, err error) {
	if len(args) == 0 {
		return q, nil
	}
	switch r.arg {
	case "max":
		if q.Max, err = strconv.Atoi(args[0]); err != nil {
			err = fmt.Errorf("bad max %q", args[0])
		}
	case "window":
		if q.Window, err = time.ParseDuration(args[0]); err != nil {
			err = fmt.Errorf("bad window %q: %w", args[0], err)
		}
	case "either":
		if q.Max, err = strconv.Atoi(args[0]); err != nil {
			q.Window, err = time.ParseDuration(args[0])
		}
	}
	return q, err
}

// errUsage makes the caller print the usage text.
var errUsage = errors.New("usage")

func renderJSON(w io.Writer, payload json.RawMessage, _ []string) error {
	var b bytes.Buffer
	if err := json.Indent(&b, payload, "", "  "); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, b.String())
	return err
}

// render adapts a typed renderer to a row: decode the payload, print it.
func render[T any](f func(io.Writer, T)) func(io.Writer, json.RawMessage, []string) error {
	return func(w io.Writer, payload json.RawMessage, _ []string) error {
		var v T
		if err := json.Unmarshal(payload, &v); err != nil {
			return err
		}
		f(w, v)
		return nil
	}
}

func renderTables(w io.Writer, tables []ctrlplane.TableStatus) {
	for _, t := range tables {
		kind := t.Kind
		if t.Selector {
			kind += "/selector"
		}
		fmt.Fprintf(w, "%-20s %-14s key=%-4db size=%-6d entries=%d\n",
			t.Name, kind, t.KeyWidth, t.Size, t.Entries)
	}
}

func renderStats(w io.Writer, st ctrlplane.DeviceStats) {
	fmt.Fprintf(w, "processed=%d dropped=%d to_cpu=%d active_tsps=%d template_loads=%d stall=%.3fms\n",
		st.Processed, st.Dropped, st.ToCPU, st.ActiveTSPs, st.TemplateLoads,
		float64(st.StallNanos)/1e6)
	for _, p := range st.Ports {
		fmt.Fprintf(w, "port %-3d rx=%-8d tx=%-8d rx_drops=%-6d tx_drops=%d\n",
			p.Port, p.Received, p.Sent, p.RxDrops, p.TxDrops)
	}
}

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

// renderMetrics prints the metrics view, filtered by `-grep PATTERN`.
// Shard-labelled series render grouped per shard after the switch-wide
// series, so the per-lane view reads as one block.
func renderMetrics(w io.Writer, payload json.RawMessage, args []string) error {
	var points []telemetry.MetricPoint
	if err := json.Unmarshal(payload, &points); err != nil {
		return err
	}
	if len(args) > 0 && (args[0] != "-grep" || len(args) < 2) {
		return errUsage
	}
	if len(args) > 1 {
		re, err := regexp.Compile(args[1])
		if err != nil {
			return fmt.Errorf("bad -grep pattern: %w", err)
		}
		points = grepMetrics(points, re)
	}
	shard := func(p telemetry.MetricPoint) int {
		for _, l := range p.Labels {
			if l.Key == "shard" {
				n, _ := strconv.Atoi(l.Value)
				return n
			}
		}
		return -1
	}
	sort.SliceStable(points, func(i, j int) bool { return shard(points[i]) < shard(points[j]) })
	group := -1
	for _, p := range points {
		indent := ""
		if sh := shard(p); sh >= 0 {
			if sh != group {
				fmt.Fprintf(w, "shard %d:\n", sh)
				group = sh
			}
			indent = "  "
		}
		fmt.Fprintf(w, "%s%s", indent, metricID(p))
		if p.Kind != "histogram" {
			fmt.Fprintf(w, " %g\n", p.Value)
			continue
		}
		fmt.Fprintf(w, " count=%d sum=%.3fms", p.Count, float64(p.SumNanos)/1e6)
		for _, q := range p.Quantiles {
			fmt.Fprintf(w, " p%g=%.3fms", q.Quantile*100, q.Nanos/1e6)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func renderTraces(w io.Writer, traces []telemetry.TraceRecord) {
	for _, tr := range traces {
		fmt.Fprintf(w, "#%d in=%d out=%d bytes=%d verdict=%s",
			tr.Seq, tr.InPort, tr.OutPort, tr.Bytes, tr.Verdict)
		if tr.Epoch > 0 {
			fmt.Fprintf(w, " epoch=%d", tr.Epoch)
		}
		fmt.Fprintln(w)
		for _, h := range tr.Headers {
			fmt.Fprintf(w, "  hdr %-14s off=%-4d len=%d\n", h.Name, h.Off, h.Len)
		}
		for _, st := range tr.Stages {
			fmt.Fprintf(w, "  tsp%d/%s", st.TSP, st.Stage)
			if st.Applied {
				outcome := "miss"
				if st.Hit {
					outcome = fmt.Sprintf("hit tag=%d", st.Tag)
				}
				fmt.Fprintf(w, " table=%s %s", st.Table, outcome)
			}
			if st.Action != "" {
				fmt.Fprint(w, " action="+st.Action)
				if st.Default {
					fmt.Fprint(w, " (default)")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

func renderReports(w io.Writer, reports []intmd.Report) {
	for _, r := range reports {
		fmt.Fprintf(w, "#%d in=%d out=%d bytes=%d path=%s\n",
			r.Seq, r.InPort, r.OutPort, r.Bytes, r.Path())
		for _, h := range r.Hops {
			stage := h.Stage
			if stage == "" {
				stage = fmt.Sprintf("stage#%04x", h.StageID)
			}
			fmt.Fprintf(w, "  sw%d tsp%d %-16s latency=%-8s qdepth=%d\n",
				h.SwitchID, h.TSP, stage,
				fmt.Sprintf("%.3fus", float64(h.LatencyNanos)/1e3), h.QDepth)
		}
	}
}

func renderEvents(w io.Writer, events []telemetry.Event) {
	for _, ev := range events {
		fmt.Fprintf(w, "#%d %s", ev.Seq, ev.Kind)
		if ev.ConfigHash != "" {
			fmt.Fprint(w, " cfg="+ev.ConfigHash)
		}
		if ev.Epoch > 0 {
			fmt.Fprintf(w, " epoch=%d", ev.Epoch)
		}
		if ev.TSPsWritten > 0 {
			fmt.Fprintf(w, " tsps=%d", ev.TSPsWritten)
		}
		if ev.TablesCreated > 0 || ev.TablesDropped > 0 {
			fmt.Fprintf(w, " tables=+%d/-%d", ev.TablesCreated, ev.TablesDropped)
		}
		if ev.StagesRecompiled > 0 || ev.StagesReused > 0 {
			fmt.Fprintf(w, " stages=%d+%d_reused", ev.StagesRecompiled, ev.StagesReused)
		}
		if ev.Hitless {
			fmt.Fprint(w, " hitless")
		} else if ev.DrainNanos > 0 {
			fmt.Fprintf(w, " drain=%.3fms", float64(ev.DrainNanos)/1e6)
		}
		if ev.InFlight > 0 {
			fmt.Fprintf(w, " in_flight=%d", ev.InFlight)
		}
		if len(ev.VerdictDeltas) > 0 {
			var parts []string
			for k, v := range ev.VerdictDeltas {
				parts = append(parts, fmt.Sprintf("%s+%d", k, v))
			}
			sort.Strings(parts)
			fmt.Fprint(w, " during_swap="+strings.Join(parts, ","))
		}
		if ev.Detail != "" {
			fmt.Fprint(w, " ("+ev.Detail+")")
		}
		fmt.Fprintln(w)
	}
}
