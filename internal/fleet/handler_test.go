package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inputtune/internal/serve"
)

// TestHandlerBothWires pins the fleet front door: the JSON envelope and
// the binary frame classify identically (the envelope is normalized to a
// frame before routing, so both shard the same), and the response
// representation follows Accept.
func TestHandlerBothWires(t *testing.T) {
	rt, _ := newLocalFleet(t, 2, Options{QuantizeBits: 8})
	defer rt.Close(context.Background())
	h := NewHandler(rt)

	for i, in := range fixtures.inputs {
		c, err := serve.LookupCodec("sort")
		if err != nil {
			t.Fatal(err)
		}
		inputJSON, err := c.EncodeJSON(in)
		if err != nil {
			t.Fatal(err)
		}
		envelope, _ := json.Marshal(map[string]json.RawMessage{
			"benchmark": json.RawMessage(`"sort"`),
			"input":     inputJSON,
		})
		req := httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(envelope))
		req.Header.Set("Content-Type", serve.ContentTypeJSON)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("input %d JSON: status %d body %s", i, rec.Code, rec.Body.String())
		}
		var dj serve.Decision
		if err := json.Unmarshal(rec.Body.Bytes(), &dj); err != nil {
			t.Fatal(err)
		}

		req = httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(fixtures.frames[i]))
		req.Header.Set("Content-Type", serve.ContentTypeBinary)
		req.Header.Set("Accept", serve.ContentTypeBinary)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("input %d binary: status %d body %s", i, rec.Code, rec.Body.String())
		}
		db, err := serve.DecodeBinaryDecision(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if dj.Landmark != db.Landmark || dj.Landmark != fixtures.labelsA[i] {
			t.Fatalf("input %d: json label %d, binary label %d, offline %d",
				i, dj.Landmark, db.Landmark, fixtures.labelsA[i])
		}
	}
}

// TestHandlerMetricsAndHealth pins the roll-up surface and the healthz
// fleet semantics (503 only when no replica is in the ring).
func TestHandlerMetricsAndHealth(t *testing.T) {
	rt, replicas := newLocalFleet(t, 2, Options{QuantizeBits: 8})
	defer rt.Close(context.Background())
	h := NewHandler(rt)

	// Drive some traffic so the roll-up has content.
	for _, frame := range fixtures.frames {
		if _, err := rt.Route(frame); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.TotalRequests != uint64(len(fixtures.frames)) || snap.HealthyReplicas != 2 {
		t.Fatalf("snapshot %+v, want %d total requests over 2 healthy replicas",
			snap.Router, len(fixtures.frames))
	}
	if snap.GenerationSkew["sort"] != 1 {
		t.Fatalf("generation skew %v, want sort=1", snap.GenerationSkew)
	}
	var perReplica uint64
	for _, r := range snap.Replicas {
		if !r.Reachable {
			t.Fatalf("replica %s unreachable in roll-up", r.Name)
		}
		perReplica += r.Metrics.Requests
	}
	if perReplica != snap.TotalRequests {
		t.Fatalf("per-replica requests sum %d != total %d", perReplica, snap.TotalRequests)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	prom := rec.Body.String()
	for _, want := range []string{
		"inputtuned_fleet_router_requests_total",
		"inputtuned_fleet_replicas_healthy 2",
		"inputtuned_fleet_replica_requests_total{replica=\"replica-0\"}",
		"inputtuned_fleet_generation_skew{benchmark=\"sort\"} 1",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output lacks %q:\n%s", want, prom)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	for _, r := range replicas {
		r.SetDown(true)
	}
	rt.CheckHealth()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz with no healthy replicas: %d, want 503", rec.Code)
	}
}

// TestHandlerReload pins the fleet reload endpoint: a rollout record
// comes back, a bad artifact is a 400.
func TestHandlerReload(t *testing.T) {
	rt, _ := newLocalFleet(t, 2, Options{QuantizeBits: 8})
	defer rt.Close(context.Background())
	h := NewHandler(rt)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/reload", bytes.NewReader(fixtures.artifactB)))
	if rec.Code != 200 {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	var ro Rollout
	if err := json.Unmarshal(rec.Body.Bytes(), &ro); err != nil {
		t.Fatal(err)
	}
	if ro.Benchmark != "sort" || ro.Skew != 1 || len(ro.Generations) != 2 {
		t.Fatalf("rollout %+v", ro)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/reload", strings.NewReader("garbage")))
	if rec.Code != 400 {
		t.Fatalf("garbage reload: %d, want 400", rec.Code)
	}
}

// TestClassifyEnvelopeErrorsBothHandlers pins the one JSON envelope
// decoder both front doors share: a single service's handler and the
// fleet's answer every bad envelope with the same status and error prefix.
func TestClassifyEnvelopeErrorsBothHandlers(t *testing.T) {
	rt, replicas := newLocalFleet(t, 2, Options{QuantizeBits: 8})
	defer rt.Close(context.Background())
	handlers := map[string]http.Handler{
		"service": serve.NewHandler(replicas[0].svc),
		"fleet":   NewHandler(rt),
	}
	cases := []struct {
		name, body string
		status     int
		prefix     string
	}{
		{"malformed JSON", `{"benchmark": "sort", "input": {`, http.StatusBadRequest, "decoding request: "},
		{"not an object", `[1, 2]`, http.StatusBadRequest, "decoding request: "},
		{"missing benchmark", `{"input": {"data": [1]}}`, http.StatusBadRequest, `request needs "benchmark" and "input"`},
		{"missing input", `{"benchmark": "sort"}`, http.StatusBadRequest, `request needs "benchmark" and "input"`},
		{"unknown benchmark", `{"benchmark": "nosuch", "input": {"data": [1]}}`, http.StatusNotFound, `serve: no codec for benchmark "nosuch"`},
		{"input of the wrong type", `{"benchmark": "sort", "input": {"data": "x"}}`, http.StatusBadRequest, "decoding sort input: "},
		{"input failing validation", `{"benchmark": "sort", "input": {"data": []}}`, http.StatusBadRequest, "decoding sort input: "},
	}
	for hname, h := range handlers {
		for _, tc := range cases {
			t.Run(hname+"/"+tc.name, func(t *testing.T) {
				req := httptest.NewRequest("POST", "/v1/classify", strings.NewReader(tc.body))
				req.Header.Set("Content-Type", serve.ContentTypeJSON)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("error body %q: %v", rec.Body.String(), err)
				}
				if rec.Code != tc.status || !strings.HasPrefix(e.Error, tc.prefix) {
					t.Fatalf("got %d %q, want %d with prefix %q", rec.Code, e.Error, tc.status, tc.prefix)
				}
			})
		}
	}
}
