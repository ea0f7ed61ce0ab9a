package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"inputtune/internal/feature"
	"inputtune/internal/obs"
	"inputtune/internal/serve"
)

// NewHandler builds the fleet's front API — the same surface one
// inputtuned replica exposes, served by the router:
//
//	POST /v1/classify  binary frames route directly; JSON envelopes are
//	                   normalized to a frame through the codec first, so
//	                   both wires shard identically
//	POST /v1/reload    rolling reload across the fleet → Rollout record
//	GET  /metrics      fleet roll-up (Prometheus; ?format=json for JSON)
//	GET  /healthz      200 while ≥1 replica is in the ring, else 503
//
// Responses negotiate like a single replica's: Accept:
// application/x-inputtune yields ITD1 decisions.
func NewHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		// The router-side trace starts (or joins, via X-Inputtune-Trace)
		// at the fleet's front edge; RouteTraced stamps the same ID into
		// the forwarded frame so replica-side spans merge under it.
		t := startRouterTrace(rt, r)
		if t != nil {
			defer rt.opts.Tracer.Finish(t)
		}
		// Bodies land in pooled byte blocks: the binary frame is routed
		// (fingerprinted in place) and released; the JSON envelope lives
		// only until it is normalized to a frame.
		body, err := readBody(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
			return
		}
		defer feature.PutBytes(body)
		var frame []byte
		switch mediaType(r.Header.Get("Content-Type")) {
		case serve.ContentTypeBinary:
			frame = body
		default:
			// Normalize the JSON envelope to a binary frame: the router
			// fingerprints frames, and both wires must shard identically or
			// a client's format choice would change which cache it warms.
			c, in, status, err := serve.DecodeClassifyJSON(body)
			if err != nil {
				writeError(w, status, err)
				return
			}
			var buf bytes.Buffer
			err = serve.EncodeBinaryRequest(&buf, c.Name, in)
			c.Release(in)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			frame = buf.Bytes()
		}
		d, err := rt.RouteTraced(frame, t)
		if err != nil {
			status := http.StatusServiceUnavailable
			var reqErr *serve.RequestError
			if errors.As(err, &reqErr) {
				status = http.StatusBadRequest
			}
			t.SetError(err)
			writeError(w, status, err)
			return
		}
		if mediaType(r.Header.Get("Accept")) == serve.ContentTypeBinary {
			w.Header().Set("Content-Type", serve.ContentTypeBinary)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(serve.AppendBinaryDecision(nil, d))
			return
		}
		writeJSON(w, http.StatusOK, d)
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		artifact, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxRequestBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading artifact: %w", err))
			return
		}
		ro, err := rt.RollingReload(artifact)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, ro)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := rt.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, snap.RenderPrometheus())
	})
	if tr := rt.opts.Tracer; tr != nil {
		mux.Handle("GET /debug/traces", obs.Handler(tr))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy := rt.HealthyReplicas()
		status := http.StatusOK
		st := "ok"
		if rt.Draining() {
			status, st = http.StatusServiceUnavailable, "draining"
		} else if len(healthy) == 0 {
			status, st = http.StatusServiceUnavailable, "no healthy replicas"
		}
		writeJSON(w, status, map[string]any{
			"status":           st,
			"replicas":         rt.Replicas(),
			"healthy_replicas": healthy,
		})
	})
	return mux
}

// startRouterTrace makes the fleet-edge sampling decision: a request
// carrying a valid X-Inputtune-Trace header joins that trace, anything
// else head-samples. Returns nil — at zero allocation — when tracing is
// off or unsampled.
func startRouterTrace(rt *Router, r *http.Request) *obs.Trace {
	tr := rt.opts.Tracer
	if tr == nil {
		return nil
	}
	if h := r.Header.Get(obs.TraceHeader); h != "" {
		if id, ok := obs.ParseID(h); ok {
			return tr.Join("router", id)
		}
	}
	return tr.Start("router")
}

// readBody reads the whole request body (bounded by MaxRequestBytes) into
// a pooled byte block; the caller must feature.PutBytes it when done.
func readBody(r io.Reader) ([]byte, error) {
	r = io.LimitReader(r, serve.MaxRequestBytes)
	buf := feature.GetBytes(32 << 10)
	for {
		if len(buf) == cap(buf) {
			next := feature.GetBytes(2 * cap(buf))
			next = append(next, buf...)
			feature.PutBytes(buf)
			buf = next
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			feature.PutBytes(buf)
			return nil, err
		}
	}
}

func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error": "encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
	_, _ = w.Write([]byte{'\n'})
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
