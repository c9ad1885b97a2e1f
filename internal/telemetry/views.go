package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Query carries the two parameters a view read takes.
type Query struct {
	// Max bounds the records returned (<= 0: the view's default, usually
	// everything buffered).
	Max int
	// Window is the rate window of windowed views (<= 0: the device's
	// default).
	Window time.Duration
}

// Views is the one introspection surface: a registry of named read-only
// views. A subsystem adds its view once; the registry then serves it
// over HTTP (Register) and, through the CCM view op, to rp4ctl. Both
// paths encode a view with JSON, so the two bodies are the same bytes.
// Add every view before the registry is served.
type Views struct {
	m map[string]func(Query) any
}

// NewViews builds an empty registry.
func NewViews() *Views { return &Views{m: make(map[string]func(Query) any)} }

// Add registers (or replaces) view name. read runs on every request and
// returns a JSON-encodable snapshot.
func (v *Views) Add(name string, read func(Query) any) { v.m[name] = read }

// Names lists the registered views in order.
func (v *Views) Names() []string {
	names := make([]string, 0, len(v.m))
	for n := range v.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON reads view name and encodes it.
func (v *Views) JSON(name string, q Query) ([]byte, error) {
	read, ok := v.m[name]
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown view %q (have %s)", name, strings.Join(v.Names(), ", "))
	}
	return json.Marshal(read(q))
}

// Register mounts GET /v/<name>?max=N&window=DUR on mux; the body is
// exactly the bytes the CCM view op returns.
func (v *Views) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v/{name}", func(w http.ResponseWriter, req *http.Request) {
		var q Query
		var err error
		if s := req.URL.Query().Get("max"); s != "" {
			q.Max, err = strconv.Atoi(s)
		}
		if s := req.URL.Query().Get("window"); s != "" && err == nil {
			q.Window, err = time.ParseDuration(s)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		name := req.PathValue("name")
		body, err := v.JSON(name, q)
		if err != nil {
			code := http.StatusInternalServerError
			if _, ok := v.m[name]; !ok {
				code = http.StatusNotFound
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
}
