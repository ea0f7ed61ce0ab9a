package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"inputtune/internal/choice"
)

// newLocalServer starts an httptest server over an existing service.
func newLocalServer(t *testing.T, svc *Service) string {
	t.Helper()
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv.URL
}

// decisionsEqual compares two decisions field by field, using Config.Key
// for the configuration (pointer identity is lost across the wire).
func decisionsEqual(a, b *Decision) bool {
	cfgEq := (a.Config == nil) == (b.Config == nil)
	if cfgEq && a.Config != nil {
		cfgEq = a.Config.Key() == b.Config.Key()
	}
	return cfgEq &&
		a.Benchmark == b.Benchmark &&
		a.Generation == b.Generation &&
		a.Landmark == b.Landmark &&
		a.ConfigDescription == b.ConfigDescription &&
		a.Classifier == b.Classifier &&
		a.FeatureUnits == b.FeatureUnits &&
		a.CacheHit == b.CacheHit
}

// TestBinaryDecisionRoundTrip: every Decision field survives the ITD1
// frame losslessly, including the binary-encoded Config.
func TestBinaryDecisionRoundTrip(t *testing.T) {
	cfg := &choice.Config{
		Selectors: []choice.Selector{
			{Levels: []choice.Level{{Cutoff: 600, Choice: 1}, {Cutoff: 1420, Choice: 2}}, Else: 0},
			{Else: 1},
		},
		Values: []float64{60, 1.5},
	}
	cases := []*Decision{
		{
			Benchmark: "sort", Generation: 7, Landmark: 2, Config: cfg,
			ConfigDescription: "n<600: a; else: b iters=60",
			Classifier:        "subset-tree", FeatureUnits: 123.456, CacheHit: true,
		},
		{Benchmark: "x", Config: &choice.Config{}},
		{},
	}
	for i, d := range cases {
		frame := AppendBinaryDecision(nil, d)
		got, err := DecodeBinaryDecision(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !decisionsEqual(d, got) {
			t.Fatalf("case %d: round trip changed decision:\n in: %+v\nout: %+v", i, d, got)
		}
	}
}

// TestBinaryDecisionDecodeErrors: truncation at every byte boundary,
// wrong magic, and trailing bytes all fail loudly.
func TestBinaryDecisionDecodeErrors(t *testing.T) {
	d := &Decision{Benchmark: "sort", Generation: 3, Landmark: 1,
		Config: &choice.Config{Values: []float64{1.5}}, Classifier: "c"}
	frame := AppendBinaryDecision(nil, d)
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeBinaryDecision(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(frame))
		}
	}
	if _, err := DecodeBinaryDecision(bytes.NewReader(append(frame, 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := DecodeBinaryDecision(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestHTTPBinaryResponseNegotiation: Accept: application/x-inputtune
// yields an ITD1 frame that decodes to exactly the Decision the JSON
// wire reports for the same input — on both request formats.
func TestHTTPBinaryResponseNegotiation(t *testing.T) {
	reg := sortServiceRegistry(t)
	// Cache disabled so repeated requests report identical CacheHit — the
	// comparison below covers every Decision field.
	svc := NewService(reg, Options{Cache: CacheOptions{Disable: true}})
	srvURL := newLocalServer(t, svc)
	codec, _ := LookupCodec("sort")
	in := testModels.sortInputs[0]

	// Reference: JSON request, JSON response.
	raw, err := codec.EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := json.Marshal(classifyRequest{Benchmark: "sort", Input: raw})
	resp, data := postJSON(t, srvURL+"/v1/classify", jsonBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json classify: %d %s", resp.StatusCode, data)
	}
	var want Decision
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	post := func(contentType string, body []byte) *http.Response {
		req, err := http.NewRequest("POST", srvURL+"/v1/classify", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", ContentTypeBinary)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	var binBody bytes.Buffer
	if err := EncodeBinaryRequest(&binBody, "sort", in); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"binary request", ContentTypeBinary, binBody.Bytes()},
		{"json request", "application/json", jsonBody},
	} {
		resp := post(tc.contentType, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
			t.Fatalf("%s: response Content-Type %q", tc.name, ct)
		}
		got, err := DecodeBinaryDecision(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding response: %v", tc.name, err)
		}
		if !decisionsEqual(&want, got) {
			t.Fatalf("%s: binary response differs from JSON:\njson:   %+v\nbinary: %+v", tc.name, want, got)
		}
	}
}

// TestHTTPBinaryResponseRefusedWithoutWire: on a deployment pinned to
// -wire json, Accept: application/x-inputtune is ignored and the
// response stays JSON (request-side binary is already a 415 there).
func TestHTTPBinaryResponseRefusedWithoutWire(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{Wires: []Wire{WireJSON}})
	srv := newLocalServer(t, svc)

	codec, _ := LookupCodec("sort")
	raw, _ := codec.EncodeJSON(testModels.sortInputs[0])
	body, _ := json.Marshal(classifyRequest{Benchmark: "sort", Input: raw})
	req, _ := http.NewRequest("POST", srv+"/v1/classify", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("response Content-Type %q, want JSON", ct)
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPBinaryRequest posts binary frames over HTTP, where the frame
// streams undecoded into the service: every label must match the offline
// ground truth, and a malformed frame must come back as a 400 even though
// its decode fails inside the service rather than in the handler.
func TestHTTPBinaryRequest(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	srv := newLocalServer(t, svc)
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)

	for i, in := range testModels.sortInputs[:8] {
		var body bytes.Buffer
		if err := EncodeBinaryRequest(&body, "sort", in); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv+"/v1/classify", ContentTypeBinary, &body)
		if err != nil {
			t.Fatal(err)
		}
		var d Decision
		err = json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("input %d: status %d err %v", i, resp.StatusCode, err)
		}
		if d.Landmark != want[i] {
			t.Fatalf("input %d: served %d, offline %d", i, d.Landmark, want[i])
		}
	}

	resp, err := http.Post(srv+"/v1/classify", ContentTypeBinary, bytes.NewReader([]byte("ITW1garbage")))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame: status %d body %s", resp.StatusCode, data)
	}
}
