package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Server is the scrape endpoint: /metrics in Prometheus text format and
// the net/http/pprof profile handlers under /debug/pprof/, plus whatever
// the caller mounts (the JSON views, the health probes).
type Server struct {
	srv  *http.Server
	addr string
}

// NewServeMux assembles the switch's debug/scrape mux: reg at /metrics
// and the pprof handlers under /debug/pprof/. The pprof handlers are
// mounted explicitly — this mux is private, so the net/http/pprof
// DefaultServeMux registrations would not be reachable — making CPU/heap
// profiles of the hot path one curl away:
//
//	curl -o cpu.pb.gz http://<addr>/debug/pprof/profile?seconds=10
//	curl -o heap.pb.gz http://<addr>/debug/pprof/heap
//
// Both ipbm and pisabm build their endpoint from this one helper; callers
// mount the JSON views (Views.Register) and the health probes (/healthz,
// /readyz) on the returned mux before serving it.
func NewServeMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMux binds addr (":0" picks an ephemeral port) and serves mux on
// it. It returns once the listener is bound.
func ServeMux(addr string, mux *http.ServeMux) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{srv: &http.Server{Handler: mux}, addr: ln.Addr().String()}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr reports the bound address.
func (s *Server) Addr() string { return s.addr }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }
