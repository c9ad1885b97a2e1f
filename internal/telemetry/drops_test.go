package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ipsa/internal/verdict"
)

func TestDropRingCaptureAndDump(t *testing.T) {
	r := NewDropRing(4, 1000, 1000)
	frame := make([]byte, 100)
	for i := range frame {
		frame[i] = byte(i)
	}
	for i := 0; i < 6; i++ {
		if !r.Offer() {
			t.Fatalf("offer %d rejected with a full bucket", i)
		}
		r.Capture(verdict.ReasonACL, i, 1, 3, uint64(10+i), frame)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("len = %d, want ring size 4", got)
	}
	recs := r.Dump(0)
	if len(recs) != 4 {
		t.Fatalf("dump returned %d records, want 4", len(recs))
	}
	// Newest first: the sixth capture leads, seq strictly descending.
	for i, rec := range recs {
		if want := uint64(6 - i); rec.Seq != want {
			t.Errorf("recs[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
	top := recs[0]
	if top.Reason != verdict.StrReasonACL || top.TSP != 5 || top.InPort != 1 || top.OutPort != 3 || top.Epoch != 15 {
		t.Errorf("top record = %+v", top)
	}
	if top.Bytes != len(frame) || len(top.Hdr) != DropHdrBytes {
		t.Errorf("capture kept %d of %d bytes, hdr %d", top.Bytes, len(frame), len(top.Hdr))
	}
	for i, b := range top.Hdr {
		if b != byte(i) {
			t.Fatalf("hdr[%d] = %#x, want %#x", i, b, byte(i))
		}
	}
	// Dump must return copies: mutating a dumped header cannot reach the
	// ring slot.
	recs[0].Hdr[0] = 0xFF
	if again := r.Dump(1); again[0].Hdr[0] == 0xFF {
		t.Error("dumped header aliases the ring slot")
	}
	if got := r.Dump(2); len(got) != 2 || got[0].Seq != 6 {
		t.Errorf("dump(2) = %d records starting at seq %d", len(got), got[0].Seq)
	}
	sampled, _ := r.Stats()
	if sampled != 6 {
		t.Errorf("sampled = %d, want 6", sampled)
	}
}

func TestDropRingTokenBucket(t *testing.T) {
	// rate 1/s with burst 3: the first three offers pass on the initial
	// bucket, the rest fail without a clock advance.
	r := NewDropRing(8, 1, 3)
	passed := 0
	for i := 0; i < 10; i++ {
		if r.Offer() {
			passed++
		}
	}
	if passed != 3 {
		t.Fatalf("%d offers passed, want burst 3", passed)
	}
	if _, skipped := r.Stats(); skipped != 7 {
		t.Errorf("skipped = %d, want 7", skipped)
	}
	// Disabled ring: every offer refuses and counts as skipped.
	r.SetRate(0)
	if r.Offer() {
		t.Error("offer passed on a disabled ring")
	}
	// Re-enable with a huge rate: the next offer refills from the clock.
	r.SetRate(1 << 30)
	if !r.Offer() {
		t.Error("offer refused after re-enable with credit available")
	}
}

func TestDropRingConcurrent(t *testing.T) {
	r := NewDropRing(32, 1<<40, 1<<40)
	frame := []byte{0xde, 0xad, 0xbe, 0xef}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if r.Offer() {
					r.Capture(verdict.ReasonTM, -1, w, 0, 0, frame)
				}
				if i%16 == 0 {
					r.Dump(8)
					r.Len()
					r.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len(); got != 32 {
		t.Fatalf("len = %d after 2000 captures into 32 slots", got)
	}
	// Sequences are unique even under contention: the newest Dump must be
	// strictly descending.
	recs := r.Dump(0)
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq >= recs[i-1].Seq {
			t.Fatalf("dump not strictly newest-first: seq %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestDropRingHTTP(t *testing.T) {
	r := NewDropRing(8, 1000, 1000)
	views := NewViews()
	views.Add("drops", func(q Query) any { return r.Dump(q.Max) })
	mux := http.NewServeMux()
	views.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) []DropRecord {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var recs []DropRecord
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return recs
	}

	// An empty ring serves an empty array, never null.
	if recs := get("/v/drops"); recs == nil || len(recs) != 0 {
		t.Fatalf("empty ring served %#v", recs)
	}
	for i := 0; i < 3; i++ {
		if !r.Offer() {
			t.Fatal("offer refused")
		}
		r.Capture(verdict.ReasonParse, -1, 2, -1, 0, []byte{1, 2, 3})
	}
	recs := get("/v/drops")
	if len(recs) != 3 || recs[0].Seq != 3 || recs[0].Reason != verdict.StrReasonParse {
		t.Fatalf("served %+v", recs)
	}
	if recs := get("/v/drops?max=1"); len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("max=1 served %+v", recs)
	}
	for path, code := range map[string]int{"/v/nope": http.StatusNotFound, "/v/drops?max=x": http.StatusBadRequest} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, code)
		}
	}
}
