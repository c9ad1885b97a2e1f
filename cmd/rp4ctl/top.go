package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/telemetry"
)

// renderStatus formats one health snapshot as the plain-text operator
// view shared by `rp4ctl health` and `rp4ctl top`.
func renderStatus(w io.Writer, st health.Status) {
	fmt.Fprintf(w, "state: %-9s uptime: %-12s window: %s\n",
		strings.ToUpper(st.State),
		time.Duration(st.UptimeNanos).Round(time.Second),
		time.Duration(st.WindowNanos))
	if st.Reason != "" {
		fmt.Fprintf(w, "reason: %s\n", st.Reason)
	}
	fmt.Fprintf(w, "pps: %-12.1f drops/s: %-10.1f drop%%: %-7.2f tm_depth: %d\n",
		st.PPS, st.DropPPS, st.DropFraction*100, st.TMDepth)
	if len(st.DropCauses) > 0 {
		causes := make([]string, 0, len(st.DropCauses))
		for k := range st.DropCauses {
			causes = append(causes, k)
		}
		sort.Strings(causes)
		parts := make([]string, 0, len(causes))
		for _, k := range causes {
			parts = append(parts, fmt.Sprintf("%s=%.1f/s", k, st.DropCauses[k]))
		}
		fmt.Fprintf(w, "drop causes: %s\n", strings.Join(parts, "  "))
	}
	if st.Latency != nil && st.Latency.Count > 0 {
		fmt.Fprintf(w, "tsp latency (sampled): p50=%.3fus p90=%.3fus p99=%.3fus n=%d\n",
			st.Latency.P50/1e3, st.Latency.P90/1e3, st.Latency.P99/1e3, st.Latency.Count)
	}
	if len(st.Lanes) > 0 {
		fmt.Fprintf(w, "\n%-12s %-8s %12s %10s %12s\n", "LANE", "STATE", "HEARTBEAT", "PENDING", "RATE/S")
		for _, l := range st.Lanes {
			state := l.State
			if l.State == "stalled" {
				state = "STALLED"
			}
			fmt.Fprintf(w, "%-12s %-8s %12d %10d %12.1f\n",
				l.Name, state, l.Heartbeat, l.Pending, l.RatePPS)
		}
	}
	for _, op := range st.Ops {
		tag := "in progress"
		if op.Wedged {
			tag = "WEDGED"
		}
		fmt.Fprintf(w, "\nreconfig %s cfg=%s age=%s [%s]\n",
			op.Kind, op.ConfigHash, time.Duration(op.AgeNanos).Round(time.Millisecond), tag)
	}
	if ev := st.LastEvent; ev != nil {
		line := fmt.Sprintf("\nlast event: #%d %s", ev.Seq, ev.Kind)
		if ev.ConfigHash != "" {
			line += " cfg=" + ev.ConfigHash
		}
		if ev.Hitless {
			line += fmt.Sprintf(" epoch=%d hitless", ev.Epoch)
		} else if ev.DrainNanos > 0 {
			line += fmt.Sprintf(" drain=%.3fms", float64(ev.DrainNanos)/1e6)
		}
		if ev.Detail != "" {
			line += " (" + ev.Detail + ")"
		}
		fmt.Fprint(w, line+"\n")
	}
}

// top refreshes the operator view in place until interrupted. It
// re-dials the device after a transport error so a restarting switch
// comes back into view on its own.
func top(addr string, cl *ctrlplane.Client, interval, window time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		var st health.Status
		err := cl.View("health", telemetry.Query{Window: window}, &st)
		// \x1b[H\x1b[2J homes the cursor and clears the screen: a live
		// refreshing view with no TUI dependency.
		fmt.Print("\x1b[H\x1b[2J")
		fmt.Printf("rp4ctl top — %s — %s (refresh %s, ctrl-c to quit)\n\n",
			addr, time.Now().Format("15:04:05"), interval)
		if err != nil {
			fmt.Printf("unreachable: %v\nre-dialing...\n", err)
			cl.Close()
			if ncl, derr := ctrlplane.Dial(addr, 2*time.Second); derr == nil {
				cl = ncl
			}
		} else {
			renderStatus(os.Stdout, st)
			// Heavy-hitter pane; devices without flow accounting (or
			// with it disabled) just skip it.
			var hh []flowstat.HeavyHitter
			if cl.View("hh", telemetry.Query{Max: 5}, &hh) == nil && len(hh) > 0 {
				fmt.Println("\nheavy hitters:")
				renderHitters(os.Stdout, hh)
			}
			// Drops-by-reason pane from the attributed drop counters;
			// silent until the first loss, like the causes line above.
			var points []telemetry.MetricPoint
			if cl.View("metrics", telemetry.Query{}, &points) == nil {
				if pane := renderDropTotals(points); pane != "" {
					fmt.Println("\ndrops by reason (total):")
					fmt.Print(pane)
				}
			}
			var recs []telemetry.DropRecord
			if cl.View("drops", telemetry.Query{Max: 3}, &recs) == nil && len(recs) > 0 {
				fmt.Println("\nlatest sampled drops:")
				renderDrops(os.Stdout, recs)
			}
		}
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}
