package verdict

import "testing"

// TestVerdictRoundTrip pins the enum -> string mapping the telemetry
// labels and record fields use: Strings is indexed by enum minus one,
// and anything outside the real verdicts renders "none".
func TestVerdictRoundTrip(t *testing.T) {
	for v := Forwarded; int(v) <= NumVerdicts; v++ {
		if got := Strings[v-1]; got != v.String() {
			t.Errorf("Strings[%d] = %q, want %q", v-1, got, v.String())
		}
	}
	if None.String() != "none" {
		t.Errorf("None.String() = %q", None.String())
	}
	if Verdict(200).String() != "none" {
		t.Errorf("out-of-range verdict String() = %q", Verdict(200).String())
	}
}

// TestReasonRoundTrip pins the verdict -> reason mapping the drop ledger
// files losses by: each loss verdict has its own reason, the reason's
// label names the verdict (a stage drop is "acl"), and tx_fail — a loss
// after a "forwarded" verdict — is the one reason no verdict reaches.
func TestReasonRoundTrip(t *testing.T) {
	reached := map[DropReason]Verdict{}
	for v := Forwarded; int(v) <= NumVerdicts; v++ {
		r := v.Reason()
		if r == ReasonNone {
			continue
		}
		if prev, dup := reached[r]; dup {
			t.Errorf("verdicts %v and %v both file under %v", prev, v, r)
		}
		reached[r] = v
		want := v.String()
		if v == Dropped {
			want = StrReasonACL
		}
		if r.String() != want {
			t.Errorf("%v files under %q, want %q", v, r.String(), want)
		}
	}
	for r := ReasonACL; int(r) <= NumReasons; r++ {
		if got := ReasonStrings[r-1]; got != r.String() {
			t.Errorf("ReasonStrings[%d] = %q, want %q", r-1, got, r.String())
		}
		if _, ok := reached[r]; ok == (r == ReasonTxFail) {
			t.Errorf("reason %v reached by a verdict: %v", r, ok)
		}
	}
	if None.Reason() != ReasonNone {
		t.Errorf("None files under %v", None.Reason())
	}
}

func TestDropClassification(t *testing.T) {
	drops := map[Verdict]bool{
		Forwarded: false, Dropped: true, TMDrop: true,
		ToCPU: false, NoPort: true, ParseError: true, None: false,
	}
	for v, want := range drops {
		if v.IsDrop() != want {
			t.Errorf("%v.IsDrop() = %v, want %v", v, v.IsDrop(), want)
		}
	}
	if !ReasonACL.Expected() {
		t.Error("ReasonACL must be expected (policy, not loss)")
	}
	for _, r := range []DropReason{ReasonTM, ReasonNoPort, ReasonParse, ReasonTxFail} {
		if r.Expected() {
			t.Errorf("%v must be unexpected (loss signal)", r)
		}
	}
}
