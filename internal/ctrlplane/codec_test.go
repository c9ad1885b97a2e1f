package ctrlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ipsa/internal/template"
)

// ccmSeeds reads the CCM seed corpus FuzzCCMRequest (internal/ipbm) and
// FuzzCCMCodec share: streams under "-- name --" lines, "#" lines being
// comments.
func ccmSeeds(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile("testdata/ccm_seeds.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --"):
			out = append(out, "")
		case len(out) > 0 && line != "":
			if s := &out[len(out)-1]; *s == "" {
				*s = line
			} else {
				*s += "\n" + line
			}
		}
	}
	return out
}

// wireValues are envelopes that reach every member and every escape the
// codec writes.
func wireValues() (reqs []*Request, resps []*Response) {
	odd := "a<b>&c\"d\\e\x00\x1f\b\f\n\r\t\u2028\u2029\x7f\xff\u00e9\u4e16"
	spec := &template.Stage{Name: "s<1>", Pipe: "ingress"}
	table := &template.Table{Name: "t&", Kind: "exact", Keys: []template.KeySel{{Name: "k"}}, KeyWidth: 4, Size: 8}
	reqs = []*Request{
		{},
		{Op: OpPing},
		{Op: OpApplyConfig, Config: &template.Config{Tables: map[string]*template.Table{"t&": table}}},
		{Op: OpInsertEntry, Entry: &EntryReq{}},
		{Op: OpInsertEntry, Entry: &EntryReq{Table: "ipv4_host", Keys: []FieldValue{{Value: 1}, {Value: 0x0a000001}}, Tag: 1, Params: []uint64{7}}},
		{Op: OpInsertEntry, Entry: &EntryReq{Table: odd, Keys: []FieldValue{{}, {Bytes: []byte{0xfe, 0x80, 0, 1}, Mask: &FieldMask{}},
			{Value: 5, Mask: &FieldMask{Value: 1<<64 - 1, Bytes: []byte{0xff}}}}, PrefixLen: -3, High: []FieldValue{{Value: 9}},
			Priority: 1 << 40, Tag: -1, Params: []uint64{0, 1<<64 - 1}}},
		{Op: OpDeleteEntry, Table: "t", Handle: -1 << 63},
		{Op: OpReadRegister, Register: odd, Index: 1<<64 - 1},
		{Op: OpView, View: "rates", Max: 3, WindowNanos: -5},
		{Op: Op(odd), Edits: []EditOp{{}, {Kind: "set_stage", Stage: "s<1>", Spec: spec, Actions: map[string]*template.Action{"b": {Name: "b"}, "a": nil},
			TSP: 2, Egress: true, Position: -1}, {Kind: "set_table", Table: "t&", TableSpec: table}}},
	}
	resps = []*Response{
		{},
		{OK: true, Handle: 17},
		{Error: odd},
		{OK: true, Stats: &TableStats{}, Value: 1<<64 - 1},
		{OK: true, Stats: &TableStats{Hits: 5, Misses: 1}, Apply: &ApplyStats{}},
		{OK: true, Apply: &ApplyStats{TSPsWritten: 1, TablesCreated: 2, TablesDropped: 3, SelectorMoved: true, EntriesMigrated: 4,
			LoadNanos: -5, Full: true, Hitless: true, Epoch: 6, StagesRecompiled: 7, StagesReused: 8}},
		{OK: true, View: json.RawMessage(`[1,2,"x"]`)},
		{OK: true, View: json.RawMessage(" {\"a <&>\u2028\" : [ 1 , \"\\\"  \\u2029 \" ,\n null ] }\t")},
	}
	return reqs, resps
}

// TestCodecWireParity: for every member and escape the codec writes, it
// writes the bytes json.Encoder writes, and decodes them back to the
// value encoding/json decodes.
func TestCodecWireParity(t *testing.T) {
	reqs, resps := wireValues()
	for i, r := range reqs {
		checkWire(t, "request", i, r, appendRequest, (*Decoder).DecodeRequest)
	}
	for i, r := range resps {
		checkWire(t, "response", i, r, appendResponse, (*Decoder).decodeResponse)
	}
}

func checkWire[T any](t *testing.T, kind string, i int, v *T, enc func([]byte, *T) ([]byte, error), dec func(*Decoder, *T) error) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	got, err := enc(nil, v)
	if err != nil || string(got) != want.String() {
		t.Errorf("%s %d: codec wrote %s (%v)\nencoding/json wrote %s", kind, i, got, err, want.Bytes())
		return
	}
	var back, wantBack T
	if err := dec(NewDecoder(bytes.NewReader(got)), &back); err != nil {
		t.Errorf("%s %d: decoding %s: %v", kind, i, got, err)
	}
	if err := json.Unmarshal(got, &wantBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, wantBack) {
		t.Errorf("%s %d: codec decoded %+v, encoding/json %+v", kind, i, back, wantBack)
	}
}

// protocolKeys are the keys of every envelope the codec decodes by hand.
var protocolKeys = []string{
	"op", "config", "entry", "table", "handle", "register", "index", "view", "max", "window_nanos", "edits",
	"keys", "prefix_len", "high", "priority", "tag", "params", "value", "bytes", "mask",
	"kind", "stage", "spec", "actions", "tsp", "egress", "position", "table_spec",
	"ok", "error", "stats", "apply", "hits", "misses", "tsps_written", "tables_created", "tables_dropped",
	"selector_moved", "entries_migrated", "load_nanos", "full", "hitless", "epoch", "stages_recompiled", "stages_reused",
}

// caseFolded reports whether data holds a string that matches a protocol
// key only after case folding: there encoding/json would take the member
// and the codec, deliberately, would not.
func caseFolded(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if s, ok := tok.(string); ok {
			for _, k := range protocolKeys {
				if s != k && strings.EqualFold(s, k) {
					return true
				}
			}
		}
	}
}

// FuzzCCMCodec holds the codec to encoding/json on arbitrary streams read
// both as requests and as responses: the same values accepted and
// refused, in the same order, the same values decoded, and each decoded
// value re-encoded to exactly json.Marshal's bytes and newline. The codec
// reads one byte at a time, so every value also crosses buffer refills.
func FuzzCCMCodec(f *testing.F) {
	for _, s := range ccmSeeds(f) {
		f.Add([]byte(s))
	}
	reqs, resps := wireValues()
	for _, r := range reqs {
		b, _ := json.Marshal(r)
		f.Add(b)
	}
	for _, r := range resps {
		b, _ := json.Marshal(r)
		f.Add(b)
	}
	for _, s := range []string{
		`{"op":"insert_entry","entry":{"table":"a","keys":[{"value":1,"mask":{"value":2}},{}]},"entry":{"keys":[{"bytes":"AQ=="}],"tag":3}}`,
		`{"op":"x","edits":[{"kind":"a","stage":"s"},{"kind":"b"}],"edits":[{"tsp":1}]}`,
		`{"entry":{"params":[1,2,3]},"entry":{"params":[4]},"entry":{"params":[null,null,5]}}`,
		`{"entry":{"keys":[{"bytes":[1,2,255]}]}}{"entry":{"keys":[{"bytes":[256]}]}}`,
		`{"entry":{"keys":[{"bytes":"AQ="}]}}`,
		`{"op":"ping","table":"\ud83d\ude00x\ud800\udc00\ud800y\udc00\ud800\u0041","view":"\/\b\f\n\r\t","register":"` + "\u00e9\xff\xe2\x80\xa8" + `"}`,
		`{"handle":1.5}{"handle":1e3}{"handle":-0}{"index":-0}{"max":9223372036854775808}`,
		`null {"op":"ping"} [] 1 "s" true`,
		`{"ok":true,"view":null}{"ok":true,"view":{ "a" : [ ] }}{"apply":null,"stats":{"hits":-1}}`,
		`{"config":{"tables":null},"config":null,"entry":null}`,
		`{"op":"ping"} {"op":`,
		`{"op":"ping","op":null,"unknown":{"deep":[[[{}]]]}}`,
		`{"OP":"ping"}`,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"edits":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"edits":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if caseFolded(data) {
			t.Skip("a case-folded key: encoding/json matches it, the codec does not")
		}
		diffStream(t, data, (*Decoder).DecodeRequest, appendRequest)
		diffStream(t, data, (*Decoder).decodeResponse, appendResponse)
	})
}

func diffStream[T any](t *testing.T, data []byte, dec func(*Decoder, *T) error, enc func([]byte, *T) ([]byte, error)) {
	t.Helper()
	jd := json.NewDecoder(bytes.NewReader(data))
	cd := NewDecoder(iotest.OneByteReader(bytes.NewReader(data)))
	for i := 0; i < 16; i++ {
		var want, got T
		jerr, cerr := jd.Decode(&want), dec(cd, &got)
		if (jerr == nil) != (cerr == nil) || (jerr == io.EOF) != (cerr == io.EOF) {
			t.Fatalf("%T %d: encoding/json says %v, the codec %v", want, i, jerr, cerr)
		}
		if jerr != nil {
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%T %d: encoding/json decoded %+v, the codec %+v", want, i, want, got)
		}
		wire, jerr := json.Marshal(&want)
		out, cerr := enc(nil, &got)
		if (jerr == nil) != (cerr == nil) {
			t.Fatalf("%T %d: encoding: json.Marshal says %v, the codec %v", want, i, jerr, cerr)
		}
		if jerr == nil && string(out) != string(wire)+"\n" {
			t.Fatalf("%T %d: the codec wrote %q, json.Marshal %q", want, i, out, wire)
		}
	}
}

// TestRequestDeadline: on a real socket, a connection idle between
// requests is served however long it waits, while one that stops, or
// trickles, mid-request is closed without an answer once the request
// deadline passes.
func TestRequestDeadline(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = 100 * time.Millisecond
	srv := NewServer(&fakeDevice{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		time.Sleep(3 * requestTimeout)
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping after %d idle periods: %v", i+1, err)
		}
	}

	for _, gap := range []time.Duration{time.Hour, requestTimeout / 4} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		start := time.Now() // before the first byte, so before the deadline is set
		// A stall after the first bytes, or one byte per quarter deadline.
		go func(conn net.Conn, gap time.Duration) {
			req := []byte(`{"op":"ping"}`)
			if _, err := conn.Write(req[:5]); err != nil {
				return
			}
			for _, c := range req[5:] {
				time.Sleep(min(gap, 10*time.Second))
				if _, err := conn.Write([]byte{c}); err != nil {
					return
				}
			}
		}(conn, gap)
		n, err := conn.Read(make([]byte, 64))
		if n > 0 || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("gap %v: read %d bytes, %v: the server kept a stalled request", gap, n, err)
		}
		if took := time.Since(start); took < requestTimeout {
			t.Errorf("gap %v: closed after %v, before the %v deadline", gap, took, requestTimeout)
		}
		conn.Close()
	}
}

// loopReader serves b over and over.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.b[r.off:])
		n += c
		r.off = (r.off + c) % len(r.b)
	}
	return n, nil
}

// benchInsert is the request rtc_bigtable's set-up sends ~17 000 times.
var benchInsert = &Request{Op: OpInsertEntry, Entry: &EntryReq{Table: "ipv4_host",
	Keys: []FieldValue{{Value: 1}, {Value: 0x0a01f3a2}}, Tag: 1, Params: []uint64{4095}}}

// BenchmarkCCMCodec: encoding and decoding an insert_entry request and
// its response, the codec beside encoding/json on the same values.
func BenchmarkCCMCodec(b *testing.B) {
	resp := &Response{OK: true, Handle: 8191}
	wireReq, _ := json.Marshal(benchInsert)
	wireResp, _ := json.Marshal(resp)
	b.Run("encode_request/codec", func(b *testing.B) {
		b.ReportAllocs()
		var out []byte
		for i := 0; i < b.N; i++ {
			out, _ = appendRequest(out[:0], benchInsert)
		}
	})
	b.Run("encode_request/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		enc := json.NewEncoder(io.Discard)
		for i := 0; i < b.N; i++ {
			_ = enc.Encode(benchInsert)
		}
	})
	b.Run("decode_request/codec", func(b *testing.B) {
		b.ReportAllocs()
		dec := NewDecoder(&loopReader{b: append(wireReq, '\n')})
		for i := 0; i < b.N; i++ {
			var r Request
			if err := dec.DecodeRequest(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode_request/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		dec := json.NewDecoder(&loopReader{b: append(wireReq, '\n')})
		for i := 0; i < b.N; i++ {
			var r Request
			if err := dec.Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode_response/codec", func(b *testing.B) {
		b.ReportAllocs()
		var out []byte
		for i := 0; i < b.N; i++ {
			out, _ = appendResponse(out[:0], resp)
		}
	})
	b.Run("encode_response/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		enc := json.NewEncoder(io.Discard)
		for i := 0; i < b.N; i++ {
			_ = enc.Encode(resp)
		}
	})
	b.Run("decode_response/codec", func(b *testing.B) {
		b.ReportAllocs()
		dec := NewDecoder(&loopReader{b: append(wireResp, '\n')})
		for i := 0; i < b.N; i++ {
			var r Response
			if err := dec.decodeResponse(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode_response/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		dec := json.NewDecoder(&loopReader{b: append(wireResp, '\n')})
		for i := 0; i < b.N; i++ {
			var r Response
			if err := dec.Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCCMInsertRoundTrip: one insert_entry over loopback TCP, the
// call rtc_bigtable's set-up makes ~17 000 times, against a device that
// only counts. allocs/op counts both ends.
func BenchmarkCCMInsertRoundTrip(b *testing.B) {
	srv := NewServer(&fakeDevice{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	e := *benchInsert.Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.InsertEntry(e); err != nil {
			b.Fatal(err)
		}
	}
}
