package ctrlplane

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"ipsa/internal/telemetry"
)

// maxRequestBytes is the most bytes one CCM request may take, from its
// first byte to its last. The largest shipped apply_config is ~12.5 KB,
// so the bound leaves three orders of magnitude of headroom while keeping
// one endless request from growing the daemon's heap without limit.
const maxRequestBytes = 16 << 20

// Server is the Control Channel Module (CCM): it bridges the data plane
// with the controller for runtime configuration (paper Sec. 4.1). One
// goroutine per connection; requests on a connection are answered in
// order.
type Server struct {
	dev Device
	log *slog.Logger

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
}

// NewServer wraps a device.
func NewServer(dev Device, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{dev: dev, log: logger, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ccm: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down || errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Warn("ccm accept", "err", err)
			continue
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := NewDecoder(conn)
	dec.limit, dec.dl = maxRequestBytes, conn
	var out []byte
	for {
		var req Request
		if err := dec.DecodeRequest(&req); err != nil {
			switch {
			case errors.Is(err, errRequestTooLarge):
				s.log.Debug("ccm request over budget", "limit_bytes", maxRequestBytes)
			case errors.Is(err, os.ErrDeadlineExceeded):
				s.log.Debug("ccm request cut off mid-way", "timeout", requestTimeout)
			case err != io.EOF && !errors.Is(err, net.ErrClosed):
				s.log.Debug("ccm decode", "err", err)
			}
			return
		}
		var err error
		if out, err = appendResponse(out[:0], s.Handle(&req)); err == nil {
			_, err = conn.Write(out)
		}
		if err != nil {
			s.log.Debug("ccm encode", "err", err)
			return
		}
		if cap(out) > keepBuf {
			out = nil
		}
	}
}

// Handle dispatches one request; exported so in-process callers (tests,
// benchmarks) can skip the socket.
func (s *Server) Handle(req *Request) *Response {
	fail := func(err error) *Response { return &Response{Error: err.Error()} }
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpApplyConfig:
		if req.Config == nil {
			return fail(fmt.Errorf("ccm: apply_config without config"))
		}
		st, err := s.dev.ApplyConfig(req.Config)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Apply: st}
	case OpInsertEntry:
		if req.Entry == nil {
			return fail(fmt.Errorf("ccm: insert_entry without entry"))
		}
		h, err := s.dev.InsertEntry(*req.Entry)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Handle: h}
	case OpDeleteEntry:
		if err := s.dev.DeleteEntry(req.Table, req.Handle); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpTableStats:
		st, err := s.dev.TableStats(req.Table)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Stats: st}
	case OpReadRegister:
		v, err := s.dev.ReadRegister(req.Register, req.Index)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Value: v}
	case OpView:
		b, err := s.dev.Views().JSON(req.View, telemetry.Query{Max: req.Max, Window: time.Duration(req.WindowNanos)})
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, View: b}
	case OpIntEnable, OpIntDisable:
		if err := s.dev.SetInt(req.Op == OpIntEnable); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpEdit:
		if len(req.Edits) == 0 {
			return fail(fmt.Errorf("ccm: edit without ops"))
		}
		st, err := s.dev.Edit(req.Edits)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Apply: st}
	}
	return fail(fmt.Errorf("ccm: unknown op %q", req.Op))
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
