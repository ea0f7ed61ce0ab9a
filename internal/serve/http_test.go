package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inputtune/internal/obs"
)

// classifyRequest is the JSON classify envelope as clients write it.
type classifyRequest struct {
	Benchmark string          `json:"benchmark"`
	Input     json.RawMessage `json:"input"`
}

// newTestServer starts an httptest server with the sort model loaded.
func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPClassify(t *testing.T) {
	srv, _ := newTestServer(t)
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)
	codec, _ := LookupCodec("sort")
	for i, in := range testModels.sortInputs[:8] {
		raw, err := codec.EncodeJSON(in)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(classifyRequest{Benchmark: "sort", Input: raw})
		resp, data := postJSON(t, srv.URL+"/v1/classify", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify input %d: %d %s", i, resp.StatusCode, data)
		}
		var d Decision
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		if d.Landmark != want[i] {
			t.Fatalf("input %d: served %d, offline %d", i, d.Landmark, want[i])
		}
		if d.Config == nil || d.ConfigDescription == "" || d.Generation == 0 {
			t.Fatalf("decision incomplete: %+v", d)
		}
	}
}

func TestHTTPClassifyErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"benchmark": "nosuch", "input": {"data": [1]}}`, http.StatusNotFound},
		{`{"benchmark": "sort", "input": {"data": []}}`, http.StatusBadRequest},
		// Registered program, valid input, but no model loaded.
		{`{"benchmark": "svd", "input": {"rows": 1, "cols": 1, "data": [1]}}`, http.StatusServiceUnavailable},
	}
	for i, tc := range cases {
		resp, data := postJSON(t, srv.URL+"/v1/classify", []byte(tc.body))
		if resp.StatusCode != tc.status {
			t.Fatalf("case %d: got %d want %d (%s)", i, resp.StatusCode, tc.status, data)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Fatalf("case %d: error body malformed: %s", i, data)
		}
	}
}

func TestHTTPReloadAndModels(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, data := postJSON(t, srv.URL+"/v1/reload", testModels.sortArtifct)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, data)
	}
	var rr reloadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Benchmark != "sort" || rr.Generation < 2 || rr.Bytes != len(testModels.sortArtifct) {
		t.Fatalf("reload response %+v", rr)
	}

	// A bad artifact is a client error and leaves the model serving.
	resp, _ = postJSON(t, srv.URL+"/v1/reload", []byte("garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad reload: %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var models []modelInfo
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Benchmark != "sort" ||
		models[0].Generation != rr.Generation || models[0].Landmarks == 0 {
		t.Fatalf("models %+v", models)
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	codec, _ := LookupCodec("sort")
	raw, _ := codec.EncodeJSON(testModels.sortInputs[0])
	body, _ := json.Marshal(classifyRequest{Benchmark: "sort", Input: raw})
	postJSON(t, srv.URL+"/v1/classify", body)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "inputtuned_requests_total 1") {
		t.Fatalf("metrics text missing request count:\n%s", text)
	}

	resp, err = http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Requests != 1 {
		t.Fatalf("metrics json: %v %+v", err, snap)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "ok" || h.Models != 1 {
		t.Fatalf("healthz: %v %+v", err, h)
	}
}

// TestHTTPConcurrentClassifyDuringReload drives the full HTTP stack from
// several clients while artifacts reload, asserting zero failed requests.
func TestHTTPConcurrentClassifyDuringReload(t *testing.T) {
	srv, _ := newTestServer(t)
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)
	codec, _ := LookupCodec("sort")
	bodies := make([][]byte, len(testModels.sortInputs))
	for i, in := range testModels.sortInputs {
		raw, err := codec.EncodeJSON(in)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], _ = json.Marshal(classifyRequest{Benchmark: "sort", Input: raw})
	}

	const clients = 6
	errCh := make(chan error, clients+1)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			var err error
			defer func() { errCh <- err }()
			for round := 0; round < 4; round++ {
				for i, body := range bodies {
					resp, e := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader(body))
					if e != nil {
						err = e
						return
					}
					var d Decision
					e = json.NewDecoder(resp.Body).Decode(&d)
					resp.Body.Close()
					if e != nil {
						err = e
						return
					}
					if resp.StatusCode != http.StatusOK || d.Landmark != want[i] {
						err = fmt.Errorf("round %d input %d: status %d landmark %d want %d",
							round, i, resp.StatusCode, d.Landmark, want[i])
						return
					}
				}
			}
		}()
	}
	go func() {
		var err error
		defer func() { errCh <- err }()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, e := http.Post(srv.URL+"/v1/reload", "application/json", bytes.NewReader(testModels.sortArtifct))
			if e != nil {
				err = e
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("reload failed mid-traffic: %d", resp.StatusCode)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHTTPClassify is the wire-format cost of one classify round trip
// through the real handler over loopback HTTP with a keep-alive client,
// cycling over the sort fixture inputs: the JSON envelope with a JSON
// response, the binary frame with a negotiated ITD1 response, and the
// binary round trip with every request traced. Allocations count client
// and server together (both run in this process); req-bytes is the mean
// request body size.
func BenchmarkHTTPClassify(b *testing.B) {
	reg := sortServiceRegistry(b)
	codec, err := LookupCodec("sort")
	if err != nil {
		b.Fatal(err)
	}
	inputs := testModels.sortInputs
	arms := []struct {
		name   string
		wire   Wire
		tracer *obs.Tracer
	}{
		{"json", WireJSON, nil},
		{"binary", WireBinary, nil},
		{"binary-traced", WireBinary, obs.New(obs.Options{SampleEvery: 1})},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			bodies := make([][]byte, len(inputs))
			total := 0
			for i, in := range inputs {
				if arm.wire == WireBinary {
					var buf bytes.Buffer
					if err := codec.Encode(WireBinary, &buf, in); err != nil {
						b.Fatal(err)
					}
					bodies[i] = buf.Bytes()
				} else {
					raw, err := codec.EncodeJSON(in)
					if err != nil {
						b.Fatal(err)
					}
					if bodies[i], err = json.Marshal(classifyRequest{Benchmark: "sort", Input: raw}); err != nil {
						b.Fatal(err)
					}
				}
				total += len(bodies[i])
			}
			srv := httptest.NewServer(NewHandler(NewService(reg, Options{Tracer: arm.tracer})))
			defer srv.Close()
			client := srv.Client()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/classify", bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					b.Fatal(err)
				}
				req.Header.Set("Content-Type", arm.wire.ContentType())
				if arm.wire == WireBinary {
					req.Header.Set("Accept", ContentTypeBinary)
				}
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				if arm.wire == WireBinary {
					_, err = DecodeBinaryDecision(resp.Body)
				} else {
					var d Decision
					err = json.NewDecoder(resp.Body).Decode(&d)
				}
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("classify: status %d, %v", resp.StatusCode, err)
				}
			}
			b.ReportMetric(float64(total)/float64(len(bodies)), "req-bytes")
		})
	}
}
