package ctrlplane

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The CCM codec writes and reads every Request and Response envelope by
// hand, so a table insert costs no reflection. Only the design payloads
// nested in a request (its config, and an edit op's spec, actions and
// table_spec) go through encoding/json, as raw sub-slices of the
// request. What the codec writes is byte for byte what json.Encoder
// writes for the same value: HTML escaping, omitempty and the trailing
// newline included. What it reads is what json.Decoder reads into the
// same types, with one narrowing: keys match exactly, where
// encoding/json also accepts a case-folded key ("OP" for "op").

// maxDepth is encoding/json's nesting limit, kept so that both accept
// the same streams.
const maxDepth = 10000

// minBuf is a decoder's first buffer; keepBuf the most buffer a decoder
// or an encoding connection keeps once the value that grew it is spent.
const (
	minBuf  = 4 << 10
	keepBuf = 64 << 10
)

// requestTimeout bounds how long the rest of a request may take to
// arrive once its first byte is buffered. A variable only so tests can
// shorten it.
var requestTimeout = 10 * time.Second

// errRequestTooLarge refuses a value longer than its decoder's limit.
var errRequestTooLarge = errors.New("ccm: request over the size bound")

const hexDigits = "0123456789abcdef"

// appendRequest appends r's wire form to b.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	var err error
	b = appendString(append(b, `{"op":`...), string(r.Op))
	if r.Config != nil {
		if b, err = appendJSON(append(b, `,"config":`...), r.Config); err != nil {
			return b, err
		}
	}
	if r.Entry != nil {
		b = appendEntry(append(b, `,"entry":`...), r.Entry)
	}
	b = appendStr(b, `,"table":`, r.Table)
	b = appendInt(b, `,"handle":`, int64(r.Handle))
	b = appendStr(b, `,"register":`, r.Register)
	b = appendUint(b, `,"index":`, r.Index)
	b = appendStr(b, `,"view":`, r.View)
	b = appendInt(b, `,"max":`, int64(r.Max))
	b = appendInt(b, `,"window_nanos":`, r.WindowNanos)
	if len(r.Edits) > 0 {
		b = append(b, `,"edits":[`...)
		for i := range r.Edits {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendEdit(b, &r.Edits[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendResponse appends r's wire form to b.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	b = strconv.AppendBool(append(b, `{"ok":`...), r.OK)
	b = appendStr(b, `,"error":`, r.Error)
	b = appendInt(b, `,"handle":`, int64(r.Handle))
	if r.Stats != nil {
		b = strconv.AppendUint(append(b, `,"stats":{"hits":`...), r.Stats.Hits, 10)
		b = strconv.AppendUint(append(b, `,"misses":`...), r.Stats.Misses, 10)
		b = append(b, '}')
	}
	b = appendUint(b, `,"value":`, r.Value)
	if a := r.Apply; a != nil {
		b = strconv.AppendInt(append(b, `,"apply":{"tsps_written":`...), int64(a.TSPsWritten), 10)
		b = strconv.AppendInt(append(b, `,"tables_created":`...), int64(a.TablesCreated), 10)
		b = strconv.AppendInt(append(b, `,"tables_dropped":`...), int64(a.TablesDropped), 10)
		b = strconv.AppendBool(append(b, `,"selector_moved":`...), a.SelectorMoved)
		b = strconv.AppendInt(append(b, `,"entries_migrated":`...), int64(a.EntriesMigrated), 10)
		b = strconv.AppendInt(append(b, `,"load_nanos":`...), a.LoadNanos, 10)
		b = strconv.AppendBool(append(b, `,"full":`...), a.Full)
		if a.Hitless {
			b = append(b, `,"hitless":true`...)
		}
		b = appendUint(b, `,"epoch":`, a.Epoch)
		b = appendInt(b, `,"stages_recompiled":`, int64(a.StagesRecompiled))
		b = appendInt(b, `,"stages_reused":`, int64(a.StagesReused))
		b = append(b, '}')
	}
	if len(r.View) > 0 {
		var err error
		if b, err = appendCompact(append(b, `,"view":`...), r.View); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

func appendEntry(b []byte, e *EntryReq) []byte {
	b = appendString(append(b, `{"table":`...), e.Table)
	b = appendFields(append(b, `,"keys":`...), e.Keys)
	b = appendInt(b, `,"prefix_len":`, int64(e.PrefixLen))
	if len(e.High) > 0 {
		b = appendFields(append(b, `,"high":`...), e.High)
	}
	b = appendInt(b, `,"priority":`, int64(e.Priority))
	b = strconv.AppendInt(append(b, `,"tag":`...), int64(e.Tag), 10)
	if len(e.Params) > 0 {
		b = append(b, `,"params":[`...)
		for i, p := range e.Params {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, p, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendFields(b []byte, fs []FieldValue) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFieldValue(b, fs[i].Value, fs[i].Bytes, fs[i].Mask)
	}
	return append(b, ']')
}

// appendFieldValue writes a FieldValue, or a FieldMask when m is nil
// (the two share their value and bytes members, all omitempty).
func appendFieldValue(b []byte, v uint64, raw []byte, m *FieldMask) []byte {
	mark := len(b)
	b = appendUint(b, `,"value":`, v)
	if len(raw) > 0 {
		b = base64.StdEncoding.AppendEncode(append(b, `,"bytes":"`...), raw)
		b = append(b, '"')
	}
	if m != nil {
		b = appendFieldValue(append(b, `,"mask":`...), m.Value, m.Bytes, nil)
	}
	if len(b) == mark {
		return append(b, "{}"...)
	}
	b[mark] = '{' // every member went in with a leading comma
	return append(b, '}')
}

func appendEdit(b []byte, op *EditOp) ([]byte, error) {
	var err error
	b = appendString(append(b, `{"kind":`...), op.Kind)
	b = appendStr(b, `,"stage":`, op.Stage)
	if op.Spec != nil {
		if b, err = appendJSON(append(b, `,"spec":`...), op.Spec); err != nil {
			return b, err
		}
	}
	if len(op.Actions) > 0 {
		if b, err = appendJSON(append(b, `,"actions":`...), op.Actions); err != nil {
			return b, err
		}
	}
	b = appendInt(b, `,"tsp":`, int64(op.TSP))
	if op.Egress {
		b = append(b, `,"egress":true`...)
	}
	b = appendInt(b, `,"position":`, int64(op.Position))
	b = appendStr(b, `,"table":`, op.Table)
	if op.TableSpec != nil {
		if b, err = appendJSON(append(b, `,"table_spec":`...), op.TableSpec); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendJSON appends a design payload as encoding/json writes it.
func appendJSON(b []byte, v any) ([]byte, error) {
	m, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, m...), nil
}

// appendStr, appendInt and appendUint write an omitempty member (key is
// `,"name":`).
func appendStr(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func appendInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & as \u00XX, U+2028 and U+2029 escaped, invalid UTF-8 as
// \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendCompact appends raw, which must hold one JSON value, as
// encoding/json embeds a json.RawMessage: whitespace outside strings
// removed, and the HTML-sensitive characters escaped as appendString
// escapes them.
func appendCompact(b, raw []byte) ([]byte, error) {
	d := Decoder{buf: raw, rerr: io.EOF}
	if err := d.begin(); err != nil {
		return b, fmt.Errorf("ccm: view payload: %w", err)
	}
	if err := d.end(d.skip()); err != nil {
		return b, fmt.Errorf("ccm: view payload: %w", err)
	}
	if err := d.begin(); err != io.EOF {
		return b, errors.New("ccm: view payload holds more than one value")
	}
	inStr, esc := false, false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
			i += 2
			continue
		case inStr:
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case c == '"':
			inStr = true
		}
		b = append(b, c)
	}
	return b, nil
}

// Decoder reads CCM envelopes from a stream: JSON values back to back,
// whitespace allowed between them. Each value is decoded in one pass
// over a buffer that holds it whole, so its design payloads can go to
// encoding/json as sub-slices.
type Decoder struct {
	r   io.Reader
	buf []byte // buf[pos:] is unread
	pos int
	// start is where the value being decoded begins in buf; in says a
	// value is being decoded.
	start int
	in    bool
	depth int
	// limit bounds one value's bytes (0: unbounded).
	limit int
	// rerr is the source's error, met once buf is spent; serr the error
	// that broke a value off mid-way, after which the stream cannot be
	// resynchronised.
	rerr, serr error
	// terr is the current value's first type error: the value is still
	// read to its end, then refused.
	terr    error
	key     []byte
	scratch []byte
	stack   []byte
	// dl, when set, gets a read deadline requestTimeout after a value
	// first has to wait for input; timed says this value set it, armed
	// that one is set.
	dl           interface{ SetReadDeadline(time.Time) error }
	timed, armed bool
}

// NewDecoder reads CCM values from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// DecodeRequest reads the next value into r. Like json.Decoder it
// returns io.EOF at a clean end of stream, and a value with a
// mismatched member type is read whole and refused.
func (d *Decoder) DecodeRequest(r *Request) error {
	if err := d.begin(); err != nil {
		return err
	}
	return d.end(d.request(r))
}

// decodeResponse reads the next value into r.
func (d *Decoder) decodeResponse(r *Response) error {
	if err := d.begin(); err != nil {
		return err
	}
	return d.end(d.response(r))
}

// begin skips to the first byte of the next value.
func (d *Decoder) begin() error {
	if d.serr != nil {
		return d.serr
	}
	d.in, d.timed, d.terr, d.depth, d.stack = false, false, nil, 0, d.stack[:0]
	if _, err := d.peek(); err != nil {
		return err
	}
	d.in, d.start = true, d.pos
	return nil
}

// end finishes a value; err broke it off.
func (d *Decoder) end(err error) error {
	d.in = false
	if err == nil {
		return d.terr
	}
	if d.serr == nil {
		d.serr = err
	}
	return err
}

// fill reads more of the source into buf; false means nothing was added
// and d.rerr says why. It may move the value being decoded to the front
// of buf (or to new storage), so what points into the value is kept as
// an offset from d.start across it.
func (d *Decoder) fill() bool {
	if d.rerr != nil {
		return false
	}
	if !d.in {
		// Everything buffered is spent: only whitespace followed the last
		// value. Storage a large value grew goes with it.
		d.buf, d.pos, d.start = d.buf[:0], 0, 0
		if cap(d.buf) > keepBuf {
			d.buf = nil
		}
		if d.armed {
			d.armed = d.dl.SetReadDeadline(time.Time{}) != nil
		}
	} else if d.dl != nil && !d.timed {
		d.timed = true
		d.armed = d.dl.SetReadDeadline(time.Now().Add(requestTimeout)) == nil
	}
	if d.in && d.limit > 0 && len(d.buf)-d.start >= d.limit {
		d.rerr = errRequestTooLarge
		return false
	}
	if len(d.buf) == cap(d.buf) {
		live := d.buf[d.start:]
		n := max(2*len(live), minBuf)
		if d.limit > 0 {
			n = min(n, d.limit) // more than live: live is under the limit
		}
		if n > cap(d.buf) {
			d.buf = make([]byte, 0, n)
		}
		d.buf = append(d.buf[:0], live...) // copy moves bytes forward only
		d.pos -= d.start
		d.start = 0
	}
	end := cap(d.buf)
	if d.in && d.limit > 0 {
		end = min(end, d.start+d.limit)
	}
	for range 100 {
		n, err := d.r.Read(d.buf[len(d.buf):end])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// fail is the error for input that ran out.
func (d *Decoder) fail() error {
	if d.rerr == io.EOF && d.in {
		return io.ErrUnexpectedEOF
	}
	return d.rerr
}

// cur returns the next byte without consuming it; false at the end of
// the input.
func (d *Decoder) cur() (byte, bool) {
	if d.pos == len(d.buf) && !d.fill() {
		return 0, false
	}
	return d.buf[d.pos], true
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *Decoder) peek() (byte, error) {
	for {
		for d.pos < len(d.buf) {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c, nil
			}
		}
		if !d.fill() {
			return 0, d.fail()
		}
	}
}

func (d *Decoder) syntax(c byte, context string) error {
	return fmt.Errorf("ccm: invalid character %q %s at byte %d of the value", c, context, d.pos-d.start)
}

// note keeps err as the value's type error unless it already has one.
func (d *Decoder) note(err error) {
	if d.terr == nil {
		d.terr = err
	}
}

// mismatch refuses the value starting with c as a want, and skips it.
func (d *Decoder) mismatch(c byte, want string) error {
	if d.terr == nil {
		kind := "number"
		switch c {
		case '{':
			kind = "object"
		case '[':
			kind = "array"
		case '"':
			kind = "string"
		case 't', 'f':
			kind = "bool"
		case 'n':
			kind = "null"
		}
		d.terr = fmt.Errorf("ccm: cannot decode a JSON %s as %s", kind, want)
	}
	return d.skip()
}

func (d *Decoder) literal(w string) error {
	for i := 0; i < len(w); i++ {
		c, ok := d.cur()
		if !ok {
			return d.fail()
		}
		if c != w[i] {
			return d.syntax(c, "in literal "+w)
		}
		d.pos++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a JSON number and returns its bytes, valid until the
// buffer is next reused.
func (d *Decoder) number() ([]byte, error) {
	off := d.pos - d.start
	c, _ := d.cur()
	if c == '-' {
		d.pos++
		var ok bool
		if c, ok = d.cur(); !ok {
			return nil, d.fail()
		}
	}
	switch {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.pos++
		d.digits()
	default:
		return nil, d.syntax(c, "in numeric literal")
	}
	if c, ok := d.cur(); ok && c == '.' {
		d.pos++
		if err := d.needDigits(); err != nil {
			return nil, err
		}
	}
	if c, ok := d.cur(); ok && (c == 'e' || c == 'E') {
		d.pos++
		if c, ok = d.cur(); ok && (c == '+' || c == '-') {
			d.pos++
		}
		if err := d.needDigits(); err != nil {
			return nil, err
		}
	}
	return d.buf[d.start+off : d.pos], nil
}

func (d *Decoder) digits() {
	for c, ok := d.cur(); ok && isDigit(c); c, ok = d.cur() {
		d.pos++
	}
}

// needDigits consumes one or more digits.
func (d *Decoder) needDigits() error {
	c, ok := d.cur()
	if !ok {
		return d.fail()
	}
	if !isDigit(c) {
		return d.syntax(c, "in numeric literal")
	}
	d.digits()
	return nil
}

// scanString consumes a string and returns the bytes between its quotes,
// and whether they are plain: free of escapes and non-ASCII bytes, so
// equal to the string they encode.
func (d *Decoder) scanString() (s []byte, plain bool, err error) {
	d.pos++ // the opening quote
	off, plain := d.pos-d.start, true
	for {
		for d.pos < len(d.buf) {
			switch c := d.buf[d.pos]; {
			case c == '"':
				d.pos++
				return d.buf[d.start+off : d.pos-1], plain, nil
			case c == '\\':
				plain = false
				if err := d.escape(); err != nil {
					return nil, false, err
				}
				continue
			case c < ' ':
				return nil, false, d.syntax(c, "in string literal")
			case c >= utf8.RuneSelf:
				plain = false
			}
			d.pos++
		}
		if !d.fill() {
			return nil, false, d.fail()
		}
	}
}

// escape consumes one escape sequence.
func (d *Decoder) escape() error {
	d.pos++ // the backslash
	c, ok := d.cur()
	if !ok {
		return d.fail()
	}
	d.pos++
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return nil
	case 'u':
		for range 4 {
			if c, ok = d.cur(); !ok {
				return d.fail()
			}
			if !isDigit(c) && !('a' <= c && c <= 'f') && !('A' <= c && c <= 'F') {
				return d.syntax(c, `in \u hexadecimal character escape`)
			}
			d.pos++
		}
		return nil
	}
	return d.syntax(c, "in string escape code")
}

// str consumes a string and returns its contents, valid until the next
// string is read.
func (d *Decoder) str() ([]byte, error) {
	s, plain, err := d.scanString()
	if err != nil || plain {
		return s, err
	}
	d.scratch = unquote(d.scratch[:0], s)
	return d.scratch, nil
}

// unquote appends the string the body s of a valid JSON string encodes,
// as encoding/json decodes it: a lone or unpaired surrogate escape and
// every byte of invalid UTF-8 become U+FFFD.
func unquote(b, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+1 < len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\' and '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// hex4 reads the four (validated) hex digits of a \u escape.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// object starts a JSON object decoded into a struct: true when it has a
// member, whose key is then in d.key. A null leaves the struct as it is;
// any other value is refused as a want.
func (d *Decoder) object(want string) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case '{':
		d.pos++
		if d.depth++; d.depth > maxDepth {
			return false, d.syntax(c, "exceeding the nesting limit")
		}
		if c, err = d.peek(); err != nil {
			return false, err
		}
		if c == '}' {
			d.pos++
			d.depth--
			return false, nil
		}
		err = d.member(c)
		return err == nil, err
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch(c, want)
}

// member reads a member's key, starting at c, and its colon.
func (d *Decoder) member(c byte) error {
	if c != '"' {
		return d.syntax(c, "looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return err
	}
	d.key = append(d.key[:0], key...) // the buffer may move before it is matched
	if c, err = d.peek(); err != nil {
		return err
	}
	if c != ':' {
		return d.syntax(c, "after object key")
	}
	d.pos++
	return nil
}

// next moves past a member's value (unless err broke it off): true when
// another member follows, its key in d.key.
func (d *Decoder) next(err error) (bool, error) {
	if err != nil {
		return false, err
	}
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case ',':
		d.pos++
		if c, err = d.peek(); err != nil {
			return false, err
		}
		err = d.member(c)
		return err == nil, err
	case '}':
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntax(c, "after object key:value pair")
}

// skip consumes one value of any kind, validating it.
func (d *Decoder) skip() error {
	for {
		c, err := d.peek()
		if err != nil {
			return err
		}
		switch c {
		case '{', '[':
			d.pos++
			if d.depth++; d.depth > maxDepth {
				return d.syntax(c, "exceeding the nesting limit")
			}
			d.stack = append(d.stack, c)
			c2, err := d.peek()
			if err != nil {
				return err
			}
			if c2 != c+2 { // not the matching } or ]: a member or element follows
				if c == '{' {
					if err := d.member(c2); err != nil {
						return err
					}
				}
				continue
			}
			d.pos++
			d.depth--
			d.stack = d.stack[:len(d.stack)-1]
		case '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case 't':
			err = d.literal("true")
		case 'f':
			err = d.literal("false")
		case 'n':
			err = d.literal("null")
		default:
			if c != '-' && !isDigit(c) {
				return d.syntax(c, "looking for beginning of value")
			}
			_, err = d.number()
		}
		if err != nil {
			return err
		}
		// A value ended: close every container it completes.
		for {
			n := len(d.stack)
			if n == 0 {
				return nil
			}
			if c, err = d.peek(); err != nil {
				return err
			}
			top := d.stack[n-1]
			if c == ',' {
				d.pos++
				if top == '{' {
					if c, err = d.peek(); err != nil {
						return err
					}
					if err := d.member(c); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				return d.syntax(c, "after a value in an object or array")
			}
			d.pos++
			d.depth--
			d.stack = d.stack[:n-1]
		}
	}
}

// raw consumes a value and returns its bytes, valid until the buffer is
// next reused.
func (d *Decoder) raw() ([]byte, error) {
	if _, err := d.peek(); err != nil {
		return nil, err
	}
	off := d.pos - d.start
	if err := d.skip(); err != nil {
		return nil, err
	}
	return d.buf[d.start+off : d.pos], nil
}

// design decodes a design payload into v (a pointer to the field) with
// encoding/json, as it would decode the field in place.
func (d *Decoder) design(v any) error {
	raw, err := d.raw()
	if err == nil {
		d.note(json.Unmarshal(raw, v))
	}
	return err
}

func (d *Decoder) stringField(dst *string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = string(s)
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(c, "string")
}

func (d *Decoder) boolField(dst *bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 't':
		if err = d.literal("true"); err == nil {
			*dst = true
		}
		return err
	case 'f':
		if err = d.literal("false"); err == nil {
			*dst = false
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(c, "bool")
}

// num reads a number for a Go integer of type want: ok=false when the
// value was null, refused or broken off.
func (d *Decoder) num(want string) (s []byte, ok bool, err error) {
	c, err := d.peek()
	if err != nil {
		return nil, false, err
	}
	switch {
	case c == '-' || isDigit(c):
		s, err = d.number()
		return s, err == nil, err
	case c == 'n':
		return nil, false, d.literal("null")
	}
	return nil, false, d.mismatch(c, want)
}

func (d *Decoder) intField(dst *int) error {
	s, ok, err := d.num("int")
	if ok {
		if n, perr := strconv.ParseInt(string(s), 10, strconv.IntSize); perr == nil {
			*dst = int(n)
		} else {
			d.badNumber(s, "int")
		}
	}
	return err
}

func (d *Decoder) int64Field(dst *int64) error {
	s, ok, err := d.num("int64")
	if ok {
		if n, perr := strconv.ParseInt(string(s), 10, 64); perr == nil {
			*dst = n
		} else {
			d.badNumber(s, "int64")
		}
	}
	return err
}

func (d *Decoder) uint64Field(dst *uint64) error {
	s, ok, err := d.num("uint64")
	if ok {
		if n, perr := strconv.ParseUint(string(s), 10, 64); perr == nil {
			*dst = n
		} else {
			d.badNumber(s, "uint64")
		}
	}
	return err
}

func (d *Decoder) uint8Field(dst *uint8) error {
	s, ok, err := d.num("uint8")
	if ok {
		if n, perr := strconv.ParseUint(string(s), 10, 8); perr == nil {
			*dst = uint8(n)
		} else {
			d.badNumber(s, "uint8")
		}
	}
	return err
}

func (d *Decoder) badNumber(s []byte, want string) {
	if d.terr == nil {
		d.terr = fmt.Errorf("ccm: cannot decode number %s as %s", s, want)
	}
}

// bytesField reads a []byte: base64 in a string, as encoding/json writes
// it, or an array of numbers, as it also reads it.
func (d *Decoder) bytesField(dst *[]byte) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(b, s)
		if err != nil {
			d.note(err)
		} else {
			*dst = b[:n]
		}
		return nil
	case '[':
		return elems(d, dst, (*Decoder).uint8Field)
	case 'n':
		*dst = nil
		return d.literal("null")
	}
	return d.mismatch(c, "[]byte")
}

// ptr decodes into the struct *dst points to, allocating it first if
// nil; a null sets *dst nil.
func ptr[T any](d *Decoder, dst **T, dec func(*Decoder, *T) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		*dst = nil
		return d.literal("null")
	}
	if *dst == nil {
		*dst = new(T)
	}
	return dec(d, *dst)
}

// list decodes a slice; a null sets it nil.
func list[T any](d *Decoder, dst *[]T, want string, elem func(*Decoder, *T) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '[':
		return elems(d, dst, elem)
	case 'n':
		*dst = nil
		return d.literal("null")
	}
	return d.mismatch(c, want)
}

// elems decodes an array into *dst. Like encoding/json it decodes each
// element over what the slice's storage already holds at that index, so
// a repeated key merges into the elements an earlier one left, and an
// empty array leaves an empty, non-nil slice.
func elems[T any](d *Decoder, dst *[]T, elem func(*Decoder, *T) error) error {
	d.pos++ // '['
	if d.depth++; d.depth > maxDepth {
		return d.syntax('[', "exceeding the nesting limit")
	}
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		d.depth--
		*dst = []T{}
		return nil
	}
	s := *dst
	for i := 0; ; i++ {
		if i < cap(s) {
			s = s[:i+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		if err := elem(d, &s[i]); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
			continue
		case ']':
			d.pos++
			d.depth--
			*dst = s
			return nil
		}
		return d.syntax(c, "after array element")
	}
}

func (d *Decoder) request(r *Request) error {
	more, err := d.object("Request")
	for more {
		switch string(d.key) {
		case "op":
			err = d.stringField((*string)(&r.Op))
		case "config":
			err = d.design(&r.Config)
		case "entry":
			err = ptr(d, &r.Entry, (*Decoder).entry)
		case "table":
			err = d.stringField(&r.Table)
		case "handle":
			err = d.intField(&r.Handle)
		case "register":
			err = d.stringField(&r.Register)
		case "index":
			err = d.uint64Field(&r.Index)
		case "view":
			err = d.stringField(&r.View)
		case "max":
			err = d.intField(&r.Max)
		case "window_nanos":
			err = d.int64Field(&r.WindowNanos)
		case "edits":
			err = list(d, &r.Edits, "[]EditOp", (*Decoder).edit)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) entry(e *EntryReq) error {
	more, err := d.object("EntryReq")
	for more {
		switch string(d.key) {
		case "table":
			err = d.stringField(&e.Table)
		case "keys":
			err = list(d, &e.Keys, "[]FieldValue", (*Decoder).fieldValue)
		case "prefix_len":
			err = d.intField(&e.PrefixLen)
		case "high":
			err = list(d, &e.High, "[]FieldValue", (*Decoder).fieldValue)
		case "priority":
			err = d.intField(&e.Priority)
		case "tag":
			err = d.intField(&e.Tag)
		case "params":
			err = list(d, &e.Params, "[]uint64", (*Decoder).uint64Field)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) fieldValue(fv *FieldValue) error {
	more, err := d.object("FieldValue")
	for more {
		switch string(d.key) {
		case "value":
			err = d.uint64Field(&fv.Value)
		case "bytes":
			err = d.bytesField(&fv.Bytes)
		case "mask":
			err = ptr(d, &fv.Mask, (*Decoder).fieldMask)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) fieldMask(m *FieldMask) error {
	more, err := d.object("FieldMask")
	for more {
		switch string(d.key) {
		case "value":
			err = d.uint64Field(&m.Value)
		case "bytes":
			err = d.bytesField(&m.Bytes)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) edit(op *EditOp) error {
	more, err := d.object("EditOp")
	for more {
		switch string(d.key) {
		case "kind":
			err = d.stringField(&op.Kind)
		case "stage":
			err = d.stringField(&op.Stage)
		case "spec":
			err = d.design(&op.Spec)
		case "actions":
			err = d.design(&op.Actions)
		case "tsp":
			err = d.intField(&op.TSP)
		case "egress":
			err = d.boolField(&op.Egress)
		case "position":
			err = d.intField(&op.Position)
		case "table":
			err = d.stringField(&op.Table)
		case "table_spec":
			err = d.design(&op.TableSpec)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) response(r *Response) error {
	more, err := d.object("Response")
	for more {
		switch string(d.key) {
		case "ok":
			err = d.boolField(&r.OK)
		case "error":
			err = d.stringField(&r.Error)
		case "handle":
			err = d.intField(&r.Handle)
		case "stats":
			err = ptr(d, &r.Stats, (*Decoder).tableStats)
		case "value":
			err = d.uint64Field(&r.Value)
		case "apply":
			err = ptr(d, &r.Apply, (*Decoder).applyStats)
		case "view":
			var raw []byte
			if raw, err = d.raw(); err == nil {
				r.View = append(r.View[:0], raw...)
			}
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) tableStats(s *TableStats) error {
	more, err := d.object("TableStats")
	for more {
		switch string(d.key) {
		case "hits":
			err = d.uint64Field(&s.Hits)
		case "misses":
			err = d.uint64Field(&s.Misses)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}

func (d *Decoder) applyStats(a *ApplyStats) error {
	more, err := d.object("ApplyStats")
	for more {
		switch string(d.key) {
		case "tsps_written":
			err = d.intField(&a.TSPsWritten)
		case "tables_created":
			err = d.intField(&a.TablesCreated)
		case "tables_dropped":
			err = d.intField(&a.TablesDropped)
		case "selector_moved":
			err = d.boolField(&a.SelectorMoved)
		case "entries_migrated":
			err = d.intField(&a.EntriesMigrated)
		case "load_nanos":
			err = d.int64Field(&a.LoadNanos)
		case "full":
			err = d.boolField(&a.Full)
		case "hitless":
			err = d.boolField(&a.Hitless)
		case "epoch":
			err = d.uint64Field(&a.Epoch)
		case "stages_recompiled":
			err = d.intField(&a.StagesRecompiled)
		case "stages_reused":
			err = d.intField(&a.StagesReused)
		default:
			err = d.skip()
		}
		more, err = d.next(err)
	}
	return err
}
