package faas

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
)

// Handler HTTP status mapping mirrors OpenWhisk's REST API: 202 for an
// accepted asynchronous invocation, 429 for every admission rejection
// (concurrency throttle, tenant over quota, shed under overload), 404 for
// unknown actions/activations.
//
//	POST   /api/v1/actions/{name}/invoke   body = params → {"activationId"}
//	GET    /api/v1/actions                 registered action names
//	DELETE /api/v1/actions/{name}          unregister an action
//	GET  /api/v1/activations/{id}        one activation record
//	GET  /api/v1/activations?action=&limit=&done=  recent activations
//
// The gateway is the platform's management/observability surface; job
// execution still flows through the executor engine (handlers are Go
// functions and cannot cross the socket).
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/actions/{name}/invoke", func(w http.ResponseWriter, r *http.Request) {
		params, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := c.Invoke(r.PathValue("name"), params)
		switch {
		case errors.Is(err, ErrNoSuchAction):
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		case errors.Is(err, ErrThrottled), errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrShed):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{"activationId": id})
	})
	mux.HandleFunc("GET /api/v1/actions", func(w http.ResponseWriter, _ *http.Request) {
		writeJSONResponse(w, c.Actions())
	})
	mux.HandleFunc("DELETE /api/v1/actions/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := c.DeleteAction(r.PathValue("name")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /api/v1/activations/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := c.Activation(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSONResponse(w, rec)
	})
	mux.HandleFunc("GET /api/v1/activations", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		action := q.Get("action")
		onlyDone := q.Get("done") == "true"
		acts := c.Activations()
		out := make([]Activation, 0, len(acts))
		// Newest first, as OpenWhisk lists them.
		for i := len(acts) - 1; i >= 0; i-- {
			a := acts[i]
			if action != "" && a.Action != action {
				continue
			}
			if onlyDone && !a.Done() {
				continue
			}
			out = append(out, a)
			if limit > 0 && len(out) == limit {
				break
			}
		}
		writeJSONResponse(w, out)
	})
	return mux
}

func writeJSONResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
