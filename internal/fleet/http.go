package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"modelslicing/internal/server"
)

// Handler returns the coordinator's HTTP API — wire-compatible with a single
// replica's on the query path, so clients point at the coordinator without
// changing a line:
//
//	POST /predict   — route one sample through the fleet (same JSON as a
//	                  replica's /predict)
//	GET  /metrics   — Prometheus text exposition of the fleet counters
//	GET  /healthz   — liveness plus live/total replica counts
//	GET  /replicas  — fleet membership and per-replica status
//	POST /replicas  — runtime join/leave: {"op":"join"|"leave","url":...}
//	POST /admin/swap — rolling fleet-wide model swap, one health-gated
//	                  replica at a time
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", c.handlePredict)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/replicas", c.handleReplicas)
	mux.HandleFunc("/admin/swap", c.handleSwapAll)
	return mux
}

func (c *Coordinator) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	var req server.PredictRequest
	if !server.DecodeBody(w, r, c.predictBodyLimit(), &req) {
		return
	}
	resp, err := c.Predict(r.Context(), req.Input)
	switch {
	case err == nil:
		writeJSON(w, resp)
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrNoReplicas):
		w.Header().Set("Retry-After", "1")
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
	default:
		var aerr *attemptErr
		if errors.As(err, &aerr) && !aerr.retryable {
			// The replica judged the request malformed; relay that verdict.
			writeJSONStatus(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		writeJSONStatus(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(c.Stats().prometheus()))
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live, total := 0, 0
	for _, r := range c.Replicas() {
		if r.Left {
			continue
		}
		total++
		if !r.Ejected {
			live++
		}
	}
	writeJSON(w, map[string]any{
		"status":        "ok",
		"replicas":      total,
		"live_replicas": live,
	})
}

// replicasBodyLimit bounds a /replicas body: an op and one base URL.
const replicasBodyLimit = 4 << 10

// handleReplicas is the runtime membership API: GET lists, POST joins or
// leaves one replica by base URL.
func (c *Coordinator) handleReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, c.Replicas())
	case http.MethodPost:
		var req struct {
			Op  string `json:"op"`
			URL string `json:"url"`
		}
		if !server.DecodeBody(w, r, replicasBodyLimit, &req) {
			return
		}
		switch req.Op {
		case "join":
			if err := c.AddReplica(req.URL); err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
		case "leave":
			if !c.RemoveReplica(req.URL) {
				http.Error(w, "unknown replica "+req.URL, http.StatusNotFound)
				return
			}
		default:
			http.Error(w, `op must be "join" or "leave"`, http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	default:
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
