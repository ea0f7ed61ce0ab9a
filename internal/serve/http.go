package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"

	"inputtune/internal/core"
	"inputtune/internal/obs"
)

// MaxRequestBytes bounds request bodies (inputs and artifacts alike) so a
// misbehaving client cannot exhaust server memory. Large PDE instances at
// benchmark sizes are a few MB of JSON; 64 MB leaves ample headroom.
const MaxRequestBytes = 64 << 20

// errEnvelopeFields rejects a JSON classify envelope without a benchmark
// name or an input object.
var errEnvelopeFields = errors.New(`request needs "benchmark" and "input"`)

// DecodeClassifyJSON decodes a POST /v1/classify JSON envelope,
// {"benchmark": "...", "input": {...}}, into the named benchmark's codec
// and input; the caller releases the input through the codec. (The binary
// wire needs no envelope: its frame names the benchmark itself.) The body
// is token-scanned only as far as "benchmark" to pick the codec, then
// unmarshalled once into that codec's envelope carrier. As the envelope
// has always behaved, unknown keys are ignored and missing input fields
// decode to zero. On failure, status is the HTTP answer: 404 for an unknown
// benchmark, 400 for everything else.
func DecodeClassifyJSON(body []byte) (c *Codec, in core.Input, status int, err error) {
	name, err := benchmarkField(body)
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	if name == "" {
		return nil, nil, http.StatusBadRequest, errEnvelopeFields
	}
	if c, err = LookupCodec(name); err != nil {
		return nil, nil, http.StatusNotFound, err
	}
	env := reflect.New(c.sch.envT)
	if err := json.Unmarshal(body, env.Interface()); err != nil {
		// The carrier's only field is "input", so a type mismatch is
		// always inside the input; anything else is a malformed body.
		var typeErr *json.UnmarshalTypeError
		if errors.As(err, &typeErr) {
			return nil, nil, http.StatusBadRequest, fmt.Errorf("decoding %s input: %w", name, err)
		}
		return nil, nil, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	iv := env.Elem().Field(0)
	if iv.IsNil() {
		return nil, nil, http.StatusBadRequest, errEnvelopeFields
	}
	if in, err = c.buildInput(c.sch.payloadOf(iv.Elem())); err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("decoding %s input: %w", name, err)
	}
	return c, in, http.StatusOK, nil
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// reloadResponse is the POST /v1/reload success body.
type reloadResponse struct {
	Benchmark  string `json:"benchmark"`
	Generation uint64 `json:"generation"`
	Bytes      int    `json:"bytes"`
}

// modelInfo is one row of GET /v1/models.
type modelInfo struct {
	Benchmark  string `json:"benchmark"`
	Generation uint64 `json:"generation"`
	Classifier string `json:"classifier"`
	Landmarks  int    `json:"landmarks"`
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status string `json:"status"`
	Models int    `json:"models"`
	// Wires lists the accepted request formats.
	Wires []string `json:"wires"`
	// Draining reports a graceful drain in progress (the endpoint also
	// answers 503 so load balancers stop routing without a body parse).
	Draining bool `json:"draining,omitempty"`
}

// bufPool recycles the per-request byte buffers (request bodies on the
// JSON path, response encodings on every path).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool, so one oversized request
// cannot pin megabytes for the rest of the process lifetime.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// mediaType extracts the media type of a Content-Type header, dropping
// parameters (charset etc.) and normalizing case.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// NewHandler builds the serving API over a service:
//
//	POST /v1/classify  content-negotiated on Content-Type:
//	                   application/json (default):
//	                     {"benchmark": "...", "input": {...}}    → Decision
//	                   application/x-inputtune:
//	                     binary frame (see wire.go)              → Decision
//	POST /v1/reload    <SaveModel artifact JSON>                 → generation
//	GET  /v1/models                                              → loaded models
//	GET  /metrics                      Prometheus text (?format=json for JSON)
//	GET  /healthz                                                → liveness
//
// Classify responses are JSON by default; a client that sends
// Accept: application/x-inputtune (on a deployment that negotiates the
// binary wire) receives the Decision as an ITD1 binary frame instead
// (response.go). Every other response stays JSON. Input wire formats are
// the per-benchmark codecs (codec.go) over the shared wire layer
// (wire.go).
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		// The trace starts (or, when the request carries an
		// X-Inputtune-Trace header, joins) at the handler edge so the
		// record covers decode through encode; nil when untraced.
		t := startTrace(svc, r)
		if t != nil {
			defer svc.tracer.Finish(t)
		}
		switch ct := mediaType(r.Header.Get("Content-Type")); ct {
		case ContentTypeBinary:
			if !svc.AcceptsWire(WireBinary) {
				writeError(w, http.StatusUnsupportedMediaType,
					fmt.Errorf("this deployment does not accept %s", ContentTypeBinary))
				return
			}
			// The frame streams straight off the socket into the service,
			// which decodes and classifies in one pass: vectors land in
			// pooled buffers exactly once.
			d, err := svc.ClassifyBinaryTraced(io.LimitReader(r.Body, MaxRequestBytes), t)
			if err != nil {
				status := http.StatusServiceUnavailable
				var reqErr *RequestError
				if errors.As(err, &reqErr) {
					status = http.StatusBadRequest
				}
				t.SetError(err)
				writeError(w, status, err)
				return
			}
			writeDecision(w, r, svc, d, t)
		default:
			if !svc.AcceptsWire(WireJSON) {
				writeError(w, http.StatusUnsupportedMediaType,
					fmt.Errorf("this deployment does not accept %s", ContentTypeJSON))
				return
			}
			dt := t.Now()
			body := getBuf()
			if _, err := body.ReadFrom(io.LimitReader(r.Body, MaxRequestBytes)); err != nil {
				putBuf(body)
				t.SetError(err)
				writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
				return
			}
			c, decoded, status, err := DecodeClassifyJSON(body.Bytes())
			putBuf(body) // the decoded input owns copies; the raw body is done
			if err != nil {
				t.SetError(err)
				writeError(w, status, err)
				return
			}
			t.Span("decode", dt)
			d, err := svc.ClassifyTraced(c.Name, decoded, t)
			// The decision carries no reference to the input, so its
			// buffers can rejoin the pool before the response is written.
			c.Release(decoded)
			if err != nil {
				t.SetError(err)
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
			writeDecision(w, r, svc, d, t)
		}
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		artifact, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading artifact: %w", err))
			return
		}
		snap, err := svc.Load(artifact)
		if err != nil {
			// The previously loaded model (if any) is still serving; a bad
			// artifact costs the client an error, never the fleet a model.
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, reloadResponse{
			Benchmark:  snap.Benchmark,
			Generation: snap.Generation,
			Bytes:      snap.ArtifactBytes,
		})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		snaps := svc.Registry().Snapshots()
		out := make([]modelInfo, 0, len(snaps))
		for _, s := range snaps {
			out = append(out, modelInfo{
				Benchmark:  s.Benchmark,
				Generation: s.Generation,
				Classifier: s.Model.Production.Name,
				Landmarks:  len(s.Model.Landmarks),
			})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := svc.MetricsSnapshot()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, snap.RenderPrometheus())
	})
	if tr := svc.Tracer(); tr != nil {
		mux.Handle("GET /debug/traces", obs.Handler(tr))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := svc.Health()
		status := http.StatusOK
		if h.Draining {
			// A draining replica is alive but leaving: 503 tells load
			// balancers and the fleet router to stop routing here.
			status = http.StatusServiceUnavailable
		}
		// The binary health frame (ITH1) is negotiated like decisions:
		// the fleet router's health loop asks for it to skip JSON parses.
		if mediaType(r.Header.Get("Accept")) == ContentTypeBinary {
			buf := getBuf()
			buf.Write(AppendHealthFrame(buf.AvailableBuffer(), h))
			w.Header().Set("Content-Type", ContentTypeBinary)
			w.WriteHeader(status)
			_, _ = w.Write(buf.Bytes())
			putBuf(buf)
			return
		}
		wires := make([]string, 0, len(h.Wires))
		for _, wire := range h.Wires {
			wires = append(wires, wire.String())
		}
		st := "ok"
		if h.Draining {
			st = "draining"
		}
		writeJSON(w, status, healthResponse{
			Status:   st,
			Models:   len(h.Models),
			Wires:    wires,
			Draining: h.Draining,
		})
	})
	return mux
}

// writeDecision writes d in the representation the client's Accept
// header asks for: application/x-inputtune (on a deployment negotiating
// the binary wire) yields the ITD1 binary frame, anything else the JSON
// Decision object. Request and response formats negotiate independently,
// so a JSON request may ask for a binary answer and vice versa.
func writeDecision(w http.ResponseWriter, r *http.Request, svc *Service, d *Decision, t *obs.Trace) {
	et := t.Now()
	if mediaType(r.Header.Get("Accept")) == ContentTypeBinary && svc.AcceptsWire(WireBinary) {
		buf := getBuf()
		buf.Write(AppendBinaryDecision(buf.AvailableBuffer(), d))
		w.Header().Set("Content-Type", ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes())
		putBuf(buf)
		t.Span("encode", et)
		return
	}
	writeJSON(w, http.StatusOK, d)
	t.Span("encode", et)
}

// startTrace makes the edge sampling decision for one HTTP request: a
// request carrying a valid X-Inputtune-Trace header joins that trace
// (the upstream hop already sampled it), anything else head-samples.
// Returns nil — at zero allocation — when tracing is off or unsampled.
func startTrace(svc *Service, r *http.Request) *obs.Trace {
	tr := svc.tracer
	if tr == nil {
		return nil
	}
	if h := r.Header.Get(obs.TraceHeader); h != "" {
		if id, ok := obs.ParseID(h); ok {
			return tr.Join(svc.traceSite, id)
		}
	}
	return tr.Start(svc.traceSite)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putBuf(buf)
		http.Error(w, `{"error": "encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Write errors past the header are unrecoverable mid-stream; the
	// client sees a truncated body and retries.
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
