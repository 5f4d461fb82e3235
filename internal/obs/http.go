package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// MetricsPath and TracesPath are the debug endpoint routes served by
// Handler.
const (
	MetricsPath = "/debug/nrmi/metrics"
	TracesPath  = "/debug/nrmi/traces"
)

// Handler returns an http.Handler serving the observer's state as JSON:
//
//	GET /debug/nrmi/metrics          — the full Snapshot
//	GET /debug/nrmi/traces?n=32      — the n slowest recent calls
//
// Mount it on any mux (or a dedicated debug listener); it holds no
// server state beyond the Observer itself.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(MetricsPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Snapshot())
	})
	mux.HandleFunc(TracesPath, func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "obs: bad n parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, o.Slowest(n))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
