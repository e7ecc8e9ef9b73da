// Package httpadmin exposes a Skute prototype node's observability
// surface over HTTP:
//
//	GET /healthz   liveness probe, 200 "ok"
//	GET /stats     full JSON snapshot (storage, membership, per-ring SLA)
//	GET /trace     the node's bounded control-plane decision trace as a
//	               JSON array, oldest first — the scenario harness
//	               scrapes and correlates it across nodes on failure
//	GET /metrics   every instrument of the node's telemetry.Registry:
//	               latency histograms (transport RTT, coordinator per-op
//	               per-consistency, admission service time, WAL fsync)
//	               and counters (durability, wire pool, control plane,
//	               read path, admission); JSON by default, aligned plain
//	               text with ?format=text or an Accept: text/plain header
//
// cmd/skuted mounts it behind the -admin flag. The package takes plain
// functions, not cluster types, so tests can fake the node.
package httpadmin

import (
	"encoding/json"
	"net/http"
	"strings"

	"skute/internal/telemetry"
)

// Handler returns the admin mux. stats yields the /stats snapshot and
// trace the /trace events (any JSON-encodable values). trace may be nil,
// in which case /trace serves an empty array; reg may be nil, in which
// case /metrics serves an empty snapshot.
func Handler(stats, trace func() any, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, stats())
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		var evs any
		if trace != nil {
			evs = trace()
		}
		if evs == nil {
			evs = []struct{}{}
		}
		writeJSON(w, evs)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := telemetry.SnapshotStats{Counters: map[string]int64{}}
		if reg != nil {
			snap = reg.Snapshot()
		}
		if r.URL.Query().Get("format") == "text" ||
			strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(snap.Text()))
			return
		}
		writeJSON(w, snap.JSON())
	})
	return mux
}

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve starts the admin mux h (see Handler) on addr in a goroutine and
// returns the server for shutdown. Errors after startup are delivered to
// errs if non-nil.
func Serve(addr string, h http.Handler, errs chan<- error) *http.Server {
	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		err := srv.ListenAndServe()
		if err != nil && err != http.ErrServerClosed && errs != nil {
			errs <- err
		}
	}()
	return srv
}
