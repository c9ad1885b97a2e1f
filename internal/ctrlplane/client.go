package ctrlplane

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// Client is the controller's connection to a device CCM.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *Decoder
	out  []byte // the request being sent, its storage reused
}

// Dial connects to a device's control channel.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: %w", err)
	}
	return &Client{conn: conn, dec: NewDecoder(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its response.
func (c *Client) Do(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, err := appendRequest(c.out[:0], req)
	if err == nil {
		_, err = c.conn.Write(out)
	}
	if c.out = out; cap(out) > keepBuf {
		c.out = nil
	}
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: send: %w", err)
	}
	var resp Response
	if err := c.dec.decodeResponse(&resp); err != nil {
		return nil, fmt.Errorf("ctrlplane: recv: %w", err)
	}
	if !resp.OK {
		return &resp, fmt.Errorf("ctrlplane: device error: %s", resp.Error)
	}
	return &resp, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.Do(&Request{Op: OpPing})
	return err
}

// ApplyConfig downloads a device configuration.
func (c *Client) ApplyConfig(cfg *template.Config) (*ApplyStats, error) {
	resp, err := c.Do(&Request{Op: OpApplyConfig, Config: cfg})
	if err != nil {
		return nil, err
	}
	return resp.Apply, nil
}

// InsertEntry installs a table entry and returns its handle. On a selector
// table the entry is one member of the group its one key field names.
func (c *Client) InsertEntry(e EntryReq) (int, error) {
	resp, err := c.Do(&Request{Op: OpInsertEntry, Entry: &e})
	if err != nil {
		return 0, err
	}
	return resp.Handle, nil
}

// DeleteEntry removes a table entry by handle.
func (c *Client) DeleteEntry(table string, handle int) error {
	_, err := c.Do(&Request{Op: OpDeleteEntry, Table: table, Handle: handle})
	return err
}

// TableStats reads a table's counters.
func (c *Client) TableStats(table string) (*TableStats, error) {
	resp, err := c.Do(&Request{Op: OpTableStats, Table: table})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// ReadRegister reads one register cell.
func (c *Client) ReadRegister(name string, index uint64) (uint64, error) {
	resp, err := c.Do(&Request{Op: OpReadRegister, Register: name, Index: index})
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// View reads the device's view name into out (a pointer to the view's
// type, or to a json.RawMessage for the payload as sent). Zero fields of
// q select the view's defaults.
func (c *Client) View(name string, q telemetry.Query, out any) error {
	resp, err := c.Do(&Request{Op: OpView, View: name, Max: q.Max, WindowNanos: q.Window.Nanoseconds()})
	if err != nil {
		return err
	}
	return json.Unmarshal(resp.View, out)
}

// IntEnable turns on in-band telemetry stamping on the device.
func (c *Client) IntEnable() error {
	_, err := c.Do(&Request{Op: OpIntEnable})
	return err
}

// IntDisable turns off in-band telemetry stamping.
func (c *Client) IntDisable() error {
	_, err := c.Do(&Request{Op: OpIntDisable})
	return err
}

// Edit sends a whole edit script, which the device publishes as one
// reconfiguration or rejects whole.
func (c *Client) Edit(ops []EditOp) (*ApplyStats, error) {
	resp, err := c.Do(&Request{Op: OpEdit, Edits: ops})
	if err != nil {
		return nil, err
	}
	return resp.Apply, nil
}
