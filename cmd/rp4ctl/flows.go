package main

import (
	"fmt"
	"io"
	"time"

	"ipsa/internal/flowstat"
)

// tupleString renders a flow's five-tuple, degrading to the hash when
// the packet never parsed as IP (the accounting still counted it).
func tupleString(src, dst string, proto uint8, sport, dport uint16, hash string) string {
	if src == "" {
		return "hash:" + hash
	}
	p := protoName(proto)
	if sport == 0 && dport == 0 {
		return fmt.Sprintf("%s %s -> %s", p, src, dst)
	}
	return fmt.Sprintf("%s %s:%d -> %s:%d", p, src, sport, dst, dport)
}

func protoName(proto uint8) string {
	switch proto {
	case 1:
		return "icmp"
	case 6:
		return "tcp"
	case 17:
		return "udp"
	case 58:
		return "icmp6"
	}
	return fmt.Sprintf("proto%d", proto)
}

// renderFlows formats flow records (active dumps or exported records) as
// the plain-text table shared by `rp4ctl flows` and the top view.
func renderFlows(w io.Writer, recs []flowstat.Record) {
	fmt.Fprintf(w, "%-4s %-44s %10s %12s %10s %9s %-9s %s\n",
		"LANE", "FLOW", "PKTS", "BYTES", "AGE", "LATENCY", "VERDICT", "REASON")
	for _, r := range recs {
		lat := "-"
		if r.LatSamples > 0 {
			lat = fmt.Sprintf("%.1fus", float64(r.LatAvgNanos)/1e3)
		}
		fmt.Fprintf(w, "%-4d %-44s %10d %12d %10s %9s %-9s %s\n",
			r.Lane,
			tupleString(r.Src, r.Dst, r.Proto, r.SrcPort, r.DstPort, r.Hash),
			r.Packets, r.Bytes,
			time.Duration(r.AgeNanos).Round(time.Millisecond),
			lat, r.Verdict, r.Reason)
	}
}

// renderHitters formats a heavy-hitter dump; estimates carry their
// overestimation bound so operators can judge confidence.
func renderHitters(w io.Writer, hh []flowstat.HeavyHitter) {
	fmt.Fprintf(w, "%-4s %-44s %12s %10s %s\n",
		"LANE", "FLOW", "EST_PKTS", "ERR", "STATE")
	for _, h := range hh {
		state := "evicted"
		if h.Live {
			state = "live"
		}
		err := "exact"
		if h.ErrBound > 0 {
			err = fmt.Sprintf("±%d", h.ErrBound)
		}
		fmt.Fprintf(w, "%-4d %-44s %12d %10s %s\n",
			h.Lane,
			tupleString(h.Src, h.Dst, h.Proto, h.SrcPort, h.DstPort, h.Hash),
			h.Packets, err, state)
	}
}
