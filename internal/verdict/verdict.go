// Package verdict is the single source of truth for packet disposition
// taxonomies: the per-packet verdict (what finally happened to a packet)
// and the drop reason (why a dropped packet died, and where). The
// switches classify a finished packet once, as an enum, and the flow
// accounting engine, the telemetry counters and the flight recorder all
// take that enum; strings exist only as label values and record fields.
//
// The package has no imports so every layer — pkt, telemetry, flowstat,
// dataplane, the switches — can depend on it without cycles.
package verdict

// Verdict is the compact per-packet disposition enum. The string forms
// are the label values of ipsa_packets_total{verdict=...} and the
// Verdict field of trace/flow records.
type Verdict uint8

const (
	None Verdict = iota
	Forwarded
	Dropped                       // a stage drop action (ACL-style, intentional)
	TMDrop                        // traffic-manager admission tail drop
	ToCPU                         // punted to the control plane
	NoPort                        // finished the pipeline with no valid egress port
	ParseError                    // frame could not carry the design's root header
	NumVerdicts = int(ParseError) // count of real verdicts (None excluded)
)

// Canonical verdict strings.
const (
	StrForwarded  = "forwarded"
	StrDropped    = "dropped"
	StrTMDrop     = "tm_drop"
	StrToCPU      = "to_cpu"
	StrNoPort     = "no_port"
	StrParseError = "parse_error"
)

// Strings orders the verdict strings by enum value minus one (None has
// no string); telemetry snapshots and deltas index it directly.
var Strings = [NumVerdicts]string{
	StrForwarded, StrDropped, StrTMDrop, StrToCPU, StrNoPort, StrParseError,
}

func (v Verdict) String() string {
	if v == None || int(v) > NumVerdicts {
		return "none"
	}
	return Strings[v-1]
}

// Reason is the drop reason a loss verdict is filed under (ReasonNone
// when the verdict is not a loss): every loss verdict has exactly one.
func (v Verdict) Reason() DropReason {
	switch v {
	case Dropped:
		return ReasonACL
	case TMDrop:
		return ReasonTM
	case NoPort:
		return ReasonNoPort
	case ParseError:
		return ReasonParse
	}
	return ReasonNone
}

// IsDrop reports whether the verdict means the packet was lost.
func (v Verdict) IsDrop() bool { return v.Reason() != ReasonNone }

// DropReason says why (and at which point) a packet died. Every dropped
// packet carries exactly one reason; the reasons are the label values of
// ipsa_drop_total{reason=...}.
type DropReason uint8

const (
	ReasonNone   DropReason          = iota
	ReasonACL                        // a stage's drop action fired (verdict "dropped")
	ReasonTM                         // TM admission tail drop (verdict "tm_drop")
	ReasonNoPort                     // no valid egress port at finish (verdict "no_port")
	ReasonParse                      // frame too short for the root header (verdict "parse_error")
	ReasonTxFail                     // egress port refused the frame after a "forwarded" verdict
	NumReasons   = int(ReasonTxFail) // count of real reasons (None excluded)
)

// Canonical reason strings.
const (
	StrReasonACL    = "acl"
	StrReasonTM     = "tm_drop"
	StrReasonNoPort = "no_port"
	StrReasonParse  = "parse_error"
	StrReasonTxFail = "tx_fail"
)

// ReasonStrings orders the reason strings by enum value minus one.
var ReasonStrings = [NumReasons]string{
	StrReasonACL, StrReasonTM, StrReasonNoPort, StrReasonParse, StrReasonTxFail,
}

func (r DropReason) String() string {
	if r == ReasonNone || int(r) > NumReasons {
		return "none"
	}
	return ReasonStrings[r-1]
}

// Expected reports whether the reason is an intentional policy outcome
// (a program's drop action) rather than a loss signal. The health layer's
// drop-spike detector keys on unexpected reasons only, so a firewall
// program doing its job cannot push the switch to "degraded".
func (r DropReason) Expected() bool { return r == ReasonACL }
