package intmd

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzIntmdTrailer: the INT sink decodes the trailer of every INT-on
// frame, so the decoder must take any bytes. Hops, TrailerLen, LastHopOut,
// Parse and Strip never panic and agree on whether data carries a
// trailer; an accepted trailer accounts for every byte of the frame; and
// stamping the decoded hops onto the payload again parses back to the
// same hops. `make fuzz-int` runs it.
func FuzzIntmdTrailer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("rINT\x01\x00\x00\x00"))
	frame := []byte("payload")
	for i := 0; i < 3; i++ {
		frame = AppendHop(frame, HopRecord{SwitchID: 1, TSP: uint16(i), StageID: 0xbeef,
			InNanos: uint64(10 * i), OutNanos: uint64(10*i + 7), LatencyNanos: 7, QDepth: 3})
		f.Add(bytes.Clone(frame))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ok := Hops(data)
		tl := TrailerLen(data)
		_, hasLast := LastHopOut(data)
		hops, payloadLen, parsed := Parse(data)
		stripped, strippedHops, err := Strip(data)
		if parsed != ok || (err == nil) != ok || hasLast != (ok && n > 0) {
			t.Fatalf("Hops ok=%v, Parse ok=%v, Strip err=%v, LastHopOut ok=%v", ok, parsed, err, hasLast)
		}
		if !ok {
			if tl != 0 || payloadLen != len(data) || len(stripped) != len(data) {
				t.Fatalf("no trailer, yet TrailerLen %d, payload %d of %d, stripped to %d", tl, payloadLen, len(data), len(stripped))
			}
			return
		}
		if len(hops) != n || payloadLen+n*HopLen+ShimLen != len(data) || tl != len(data)-payloadLen {
			t.Fatalf("%d hops (%d decoded), payload %d, trailer %d: not the %d bytes of the frame", n, len(hops), payloadLen, tl, len(data))
		}
		if len(stripped) != payloadLen || !reflect.DeepEqual(strippedHops, hops) {
			t.Fatalf("Strip gave %d bytes and %d hops, Parse %d and %d", len(stripped), len(strippedHops), payloadLen, len(hops))
		}
		// The round trip holds for a payload without a trailer of its own
		// (AppendHop extends one it finds) and at least one hop (a shim
		// alone re-stamps to nothing).
		payload := bytes.Clone(data[:payloadLen])
		if _, nested := Hops(payload); nested || n == 0 {
			return
		}
		for _, h := range hops {
			payload = AppendHop(payload, h)
		}
		back, backLen, ok := Parse(payload)
		if !ok || backLen != payloadLen || !reflect.DeepEqual(back, hops) {
			t.Fatalf("re-stamped hops parse back as ok=%v payload %d: %+v, want %d: %+v", ok, backLen, back, payloadLen, hops)
		}
	})
}
