package ipbm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
	"ipsa/internal/testbed"
)

// handleStream decodes data as the stream of CCM requests a connection
// carries and answers each in order, as Server.serveConn does, stopping
// at the first undecodable request or after limit requests. Every
// request must be answered either OK or with an error.
func handleStream(t *testing.T, srv *ctrlplane.Server, data []byte, limit int) []*ctrlplane.Response {
	t.Helper()
	var out []*ctrlplane.Response
	dec := ctrlplane.NewDecoder(bytes.NewReader(data))
	for len(out) < limit {
		var req ctrlplane.Request
		if dec.DecodeRequest(&req) != nil {
			break
		}
		resp := srv.Handle(&req)
		if resp.OK == (resp.Error != "") {
			t.Fatalf("request %d (%s): ok=%v error=%q", len(out), req.Op, resp.OK, resp.Error)
		}
		out = append(out, resp)
	}
	return out
}

// ccmSeed is one named request stream of the shared CCM seed corpus.
type ccmSeed struct{ name, stream string }

// ccmSeeds reads the CCM seed corpus that FuzzCCMRequest here and the
// codec's FuzzCCMCodec share: streams under "-- name --" lines, "#"
// lines being comments.
func ccmSeeds(tb testing.TB) []ccmSeed {
	tb.Helper()
	data, err := os.ReadFile("../ctrlplane/testdata/ccm_seeds.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var out []ccmSeed
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --"):
			out = append(out, ccmSeed{name: line[3 : len(line)-3]})
		case len(out) > 0 && line != "":
			if s := &out[len(out)-1]; s.stream == "" {
				s.stream = line
			} else {
				s.stream += "\n" + line
			}
		}
	}
	return out
}

// ccmSeedStream returns the seed named name.
func ccmSeedStream(t *testing.T, name string) string {
	for _, s := range ccmSeeds(t) {
		if s.name == name {
			return s.stream
		}
	}
	t.Fatalf("no CCM seed %q", name)
	return ""
}

// TestCCMCrashReproducers replays the seed streams that once killed the
// daemon: a null table, stage or action in apply_config (nil dereference
// in Validate), which must now be refused, and an edit over an empty
// design (writes into the null maps the config clone round-tripped),
// which must now succeed.
func TestCCMCrashReproducers(t *testing.T) {
	n := 0
	for _, r := range ccmSeeds(t) {
		ok, isRepro := strings.CutPrefix(r.name, "reproducer/")
		if !isRepro {
			continue
		}
		n++
		sw, err := New(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		resps := handleStream(t, ctrlplane.NewServer(sw, nil), []byte(r.stream), 8)
		want := strings.HasPrefix(ok, "ok/")
		if last := resps[len(resps)-1]; last.OK != want {
			t.Errorf("%s: ok=%v error=%q, want ok=%v", r.name, last.OK, last.Error, want)
		}
	}
	if n < 5 {
		t.Fatalf("%d reproducers in the seed corpus, want 5", n)
	}
}

// TestCCMSelectorMembers drives an ECMP group's members through the CCM
// entry ops (the ecmp_members seed): each insert_entry on the selector returns the member's
// handle, delete_entry removes that member alone, a second delete of it
// is refused, and the tables view counts the members left.
func TestCCMSelectorMembers(t *testing.T) {
	sw := switchOn(t, testbed.Config(t, "ecmp.script"), nil)
	resps := handleStream(t, ctrlplane.NewServer(sw, nil), []byte(ccmSeedStream(t, "ecmp_members")), 8)
	if len(resps) != 4 || !resps[0].OK || !resps[1].OK || resps[1].Handle != 1 || !resps[2].OK || resps[3].OK {
		t.Fatalf("member ops answered %+v %+v %+v %+v", *resps[0], *resps[1], *resps[2], *resps[3])
	}
	for _, ts := range sw.ListTables() {
		if ts.Name == "ecmp_ipv4" && (!ts.Selector || ts.Kind != "hash" || ts.Entries != 1) {
			t.Errorf("tables view: %+v, want one member of a hash selector", ts)
		}
	}
	group, err := ctrlplane.EncodeGroupKey(sw.Config().Tables["ecmp_ipv4"], ctrlplane.FieldValue{Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := sw.LookupSelector("ecmp_ipv4", group, 5)
	if !ok || r.EntryHandle != 1 || r.Params[1] != 3 {
		t.Errorf("member left: %+v,%v", r, ok)
	}
}

var (
	ccmFuzzOnce sync.Once
	ccmFuzzCfg  *template.Config
)

// FuzzCCMRequest throws arbitrary bytes at the control channel of a
// switch running the populated ECMP design (the base design under
// ecmp.script), decoded by the CCM codec as the request stream a
// connection carries. Its seeds are a view op per registered view and
// the shared seed corpus. No
// input may panic the daemon, and every request is answered OK or with an
// error. Each input gets a fresh switch, so a finding replays alone.
func FuzzCCMRequest(f *testing.F) {
	var names []string
	if sw, err := New(DefaultOptions()); err == nil {
		names = sw.Views().Names()
	}
	for _, name := range names {
		f.Add([]byte(`{"op":"view","view":"` + name + `","max":2,"window_nanos":1000000000}`))
	}
	for _, s := range ccmSeeds(f) {
		f.Add([]byte(s.stream))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ccmFuzzOnce.Do(func() { ccmFuzzCfg = testbed.Config(t, "ecmp.script") })
		cfg, err := ccmFuzzCfg.Clone()
		if err != nil {
			t.Fatal(err)
		}
		handleStream(t, ctrlplane.NewServer(switchOn(t, cfg, nil), nil), data, 16)
	})
}

// viewVolatile matches what moves between two reads of a quiesced
// switch: clock-derived ages and uptimes, and the Go runtime's own
// series in the metrics view.
var viewVolatile = regexp.MustCompile(`"(uptime|age)_nanos":\d+|("name":"ipsa_go_[a-z_]+","kind":"[a-z]+")(,"value":[^}]+)?`)

// TestViewParity: on a quiesced switch every registered view reads the
// same bytes over HTTP (GET /v/<name>) as over the CCM view op, once the
// fields that move with the clock or the Go runtime are masked.
func TestViewParity(t *testing.T) {
	sw, _ := newBaseSwitchOpts(t, func(o *Options) {
		o.TraceEvery, o.LatencyEvery, o.HealthInterval = 1, 1, -1
	})
	want := []string{"drops", "events", "flow_records", "flows", "health", "hh", "int",
		"metrics", "rates", "stats", "tables", "traces"}
	if got := sw.Views().Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("views = %v, want %v", got, want)
	}
	if err := sw.SetInt(true); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	sw.Health().Check(now)
	for i := 0; i < 4; i++ {
		if i == 2 {
			sw.Flows().FlushAll() // records for flow_records, live flows after
		}
		for _, dst := range [][4]byte{{10, 0, 0, 2}, {10, 1, 0, 5}, {192, 168, 0, 1}} {
			if _, err := sw.ProcessPacket(v4Packet(t, dst, testbed.RouterMAC, 64), testbed.InPort); err != nil {
				t.Fatal(err)
			}
		}
	}
	sw.Health().Check(now + int64(time.Second))

	mux := http.NewServeMux()
	sw.Views().Register(mux)
	web := httptest.NewServer(mux)
	defer web.Close()
	srv := ctrlplane.NewServer(sw, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ctrlplane.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	mask := func(b []byte) string { return viewVolatile.ReplaceAllString(string(b), "$2") }
	for _, name := range want {
		resp, err := http.Get(web.URL + "/v/" + name + "?max=3&window=2s")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v/%s: %d %s", name, resp.StatusCode, body)
		}
		var payload json.RawMessage
		if err := cl.View(name, telemetry.Query{Max: 3, Window: 2 * time.Second}, &payload); err != nil {
			t.Fatal(err)
		}
		if h, c := mask(body), mask(payload); h != c {
			t.Errorf("view %s differs:\nhttp %s\nccm  %s", name, h, c)
		}
		if p := string(payload); p == "[]" || p == "null" {
			t.Errorf("view %s is empty on a switch that carried traffic", name)
		}
	}
}
