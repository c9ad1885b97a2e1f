package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ipsa/internal/telemetry"
)

// renderDrops formats sampled drop-capture records (newest first) as the
// plain-text table shared by `rp4ctl drops` and the top view. The header
// prefix prints as hex so an operator can eyeball addresses without a
// pcap round trip.
func renderDrops(w io.Writer, recs []telemetry.DropRecord) {
	fmt.Fprintf(w, "%-6s %-12s %-11s %-5s %-5s %-6s %6s  %s\n",
		"SEQ", "AGE", "REASON", "IN", "OUT", "EPOCH", "BYTES", "HDR")
	for _, r := range recs {
		reason := r.Reason
		if r.Reason == "acl" && r.TSP >= 0 {
			reason = fmt.Sprintf("acl@tsp%d", r.TSP)
		}
		out := "-"
		if r.OutPort >= 0 {
			out = fmt.Sprintf("%d", r.OutPort)
		}
		epoch := "-"
		if r.Epoch > 0 {
			epoch = fmt.Sprintf("%d", r.Epoch)
		}
		fmt.Fprintf(w, "%-6d %-12s %-11s %-5d %-5s %-6s %6d  %s\n",
			r.Seq, time.Duration(r.Nanos).Round(time.Millisecond),
			reason, r.InPort, out, epoch, r.Bytes, hexPrefix(r.Hdr, 32))
	}
}

// hexPrefix renders up to max bytes as space-grouped hex pairs, with an
// ellipsis when the capture holds more.
func hexPrefix(b []byte, max int) string {
	trunc := len(b) > max
	if trunc {
		b = b[:max]
	}
	var s strings.Builder
	for i, c := range b {
		if i > 0 && i%4 == 0 {
			s.WriteByte(' ')
		}
		fmt.Fprintf(&s, "%02x", c)
	}
	if trunc {
		s.WriteString("..")
	}
	return s.String()
}

// renderDropTotals aggregates the attributed drop counters
// (ipsa_drop_total{reason,stage}) from a metrics dump into a
// reason-by-stage breakdown, largest first. Empty when nothing has
// dropped yet.
func renderDropTotals(points []telemetry.MetricPoint) string {
	type row struct {
		reason, stage string
		count         uint64
	}
	var rows []row
	var total uint64
	for _, p := range points {
		if p.Name != "ipsa_drop_total" || p.Value <= 0 {
			continue
		}
		r := row{count: uint64(p.Value)}
		for _, l := range p.Labels {
			switch l.Key {
			case "reason":
				r.reason = l.Value
			case "stage":
				r.stage = l.Value
			}
		}
		rows = append(rows, r)
		total += r.count
	}
	if len(rows) == 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		if rows[i].reason != rows[j].reason {
			return rows[i].reason < rows[j].reason
		}
		return rows[i].stage < rows[j].stage
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %12s %7s\n", "REASON", "STAGE", "DROPS", "SHARE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-8s %12d %6.1f%%\n",
			r.reason, r.stage, r.count, 100*float64(r.count)/float64(total))
	}
	return b.String()
}
