package health

import (
	"net/http"

	"ipsa/internal/telemetry"
)

// AddViews registers the health views:
//
//	health — the windowed Status (Query.Window overrides the rate window)
//	rates  — every tracked series' windowed rate, sorted by name
func (h *Health) AddViews(v *telemetry.Views) {
	v.Add("health", func(q telemetry.Query) any { return h.Status(q.Window) })
	v.Add("rates", func(q telemetry.Query) any {
		if q.Window <= 0 {
			q.Window = rateWindow
		}
		return h.ring.Rates(q.Window)
	})
}

// Register mounts the probe endpoints on mux (typically the one built by
// telemetry.NewServeMux):
//
//	/healthz  — liveness: 200 unless the switch is stalled (503)
//	/readyz   — readiness: 200 once a configuration is installed and the
//	            switch is not stalled
func (h *Health) Register(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state := h.State()
		if state == StateStalled {
			http.Error(w, state.String(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(state.String() + "\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		state := h.State()
		if !h.Ready() || state == StateStalled {
			http.Error(w, "not ready ("+state.String()+")", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
}
