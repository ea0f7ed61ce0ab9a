package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"

	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/engine"
)

// postWire sends one classify request in the given wire format and
// returns the decoded Decision.
func postWire(t *testing.T, url string, wire Wire, benchmark string, in *sortbench.List) (*http.Response, Decision) {
	t.Helper()
	var body bytes.Buffer
	if wire == WireBinary {
		if err := EncodeBinaryRequest(&body, benchmark, in); err != nil {
			t.Fatal(err)
		}
	} else {
		codec, err := LookupCodec(benchmark)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := codec.EncodeJSON(in)
		if err != nil {
			t.Fatal(err)
		}
		env, _ := json.Marshal(classifyRequest{Benchmark: benchmark, Input: raw})
		body.Write(env)
	}
	resp, err := http.Post(url+"/v1/classify", wire.ContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d Decision
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatalf("decision body %s: %v", data, err)
		}
	}
	return resp, d
}

// TestServedLabelsBitIdenticalAcrossWires is the tentpole acceptance
// invariant: for every input, the offline classification, the JSON-served
// label and the binary-served label are the same number, and the charged
// feature units agree bit-for-bit.
func TestServedLabelsBitIdenticalAcrossWires(t *testing.T) {
	srv, _ := newTestServer(t)
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)
	for i, in := range testModels.sortInputs {
		l := in.(*sortbench.List)
		units := testModels.sortModel.Infer(in).FeatureUnits
		for _, wire := range []Wire{WireJSON, WireBinary} {
			resp, d := postWire(t, srv.URL, wire, "sort", l)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("input %d over %s: status %d", i, wire, resp.StatusCode)
			}
			if d.Landmark != want[i] {
				t.Fatalf("input %d over %s: served %d, offline %d", i, wire, d.Landmark, want[i])
			}
			if d.FeatureUnits != units {
				t.Fatalf("input %d over %s: units %v, offline %v", i, wire, d.FeatureUnits, units)
			}
		}
	}
}

// TestWireRestriction pins the -wire deployment knob: a JSON-only service
// refuses binary frames with 415 and vice versa, and healthz reports the
// accepted set.
func TestWireRestriction(t *testing.T) {
	trainTestModels(t)
	for _, tc := range []struct {
		accept Wire
		refuse Wire
	}{
		{WireJSON, WireBinary},
		{WireBinary, WireJSON},
	} {
		reg := NewRegistry()
		if err := reg.Register(sortbench.New()); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Load(testModels.sortArtifct); err != nil {
			t.Fatal(err)
		}
		svc := NewService(reg, Options{Wires: []Wire{tc.accept}})
		srv := httptest.NewServer(NewHandler(svc))
		in := testModels.sortInputs[0].(*sortbench.List)

		resp, _ := postWire(t, srv.URL, tc.accept, "sort", in)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("accepted wire %s got %d", tc.accept, resp.StatusCode)
		}
		resp, _ = postWire(t, srv.URL, tc.refuse, "sort", in)
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("refused wire %s got %d, want 415", tc.refuse, resp.StatusCode)
		}

		hresp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h healthResponse
		if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if len(h.Wires) != 1 || h.Wires[0] != tc.accept.String() {
			t.Fatalf("healthz wires = %v, want [%s]", h.Wires, tc.accept)
		}
		srv.Close()
		svc.Close()
	}
}

// TestBinaryDecodeLargeVector round-trips a vector far past the
// decoder's pre-allocation guard (vecPreAlloc), whole and one byte per
// read, exercising the pooled re-growth path end to end with exact value
// equality.
func TestBinaryDecodeLargeVector(t *testing.T) {
	data := make([]float64, 3*vecPreAlloc+17)
	for i := range data {
		data[i] = float64(i%977) * 1.5
	}
	in := &sortbench.List{Data: data}
	var buf bytes.Buffer
	if err := EncodeBinaryRequest(&buf, "sort", in); err != nil {
		t.Fatal(err)
	}
	for _, r := range []io.Reader{bytes.NewReader(buf.Bytes()), iotest.OneByteReader(bytes.NewReader(buf.Bytes()))} {
		codec, back, err := DecodeBinaryRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		bl := back.(*sortbench.List)
		if len(bl.Data) != len(data) {
			t.Fatalf("decoded %d values, want %d", len(bl.Data), len(data))
		}
		for i := range data {
			if bl.Data[i] != data[i] {
				t.Fatalf("value %d corrupted across pooled growth: %v vs %v", i, bl.Data[i], data[i])
			}
		}
		codec.Release(back)
	}
}

func TestQuantizeRow(t *testing.T) {
	// 0 bits is the identity — the default path's bit-identical guarantee.
	vals := []float64{1.0000000001, -3.7, 0, math.Pi}
	orig := append([]float64(nil), vals...)
	quantizeRow(0, vals)
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("0-bit quantization changed value %d", i)
		}
	}
	// With b bits, values differing only below bit b collapse.
	a, b := math.Pi, math.Float64frombits(math.Float64bits(math.Pi)|((1<<17)-1))
	if a == b {
		t.Fatal("test values should differ")
	}
	pair := []float64{a, b}
	quantizeRow(20, pair)
	if pair[0] != pair[1] {
		t.Fatalf("20-bit quantization did not collapse a 17-low-bit difference: %x %x",
			math.Float64bits(pair[0]), math.Float64bits(pair[1]))
	}
	// ...but not values differing above it.
	pair = []float64{1.0, 2.0}
	quantizeRow(20, pair)
	if pair[0] == pair[1] {
		t.Fatal("quantization collapsed distinct magnitudes")
	}
	if clampQuantizeBits(99) != maxQuantizeBits || clampQuantizeBits(-3) != 0 {
		t.Fatal("clampQuantizeBits out of range")
	}
}

// TestQuantizedKeyCollapsesNearDuplicateRows pins the key semantics the
// opt-in buys: two feature rows differing only below the truncation point
// produce one fingerprint once quantized, while exact keys keep them
// distinct (the default's bit-identical guarantee).
func TestQuantizedKeyCollapsesNearDuplicateRows(t *testing.T) {
	rowA := []float64{0.73125, 12.5, -3.0009765625}
	rowB := make([]float64, len(rowA))
	for i, v := range rowA {
		rowB[i] = math.Float64frombits(math.Float64bits(v) ^ 0x3FF) // low 10 bits
	}
	keyOf := func(bits int, row []float64) string {
		vals := append([]float64(nil), row...)
		quantizeRow(bits, vals)
		return engine.Fingerprint([]uint64{1}, vals)
	}
	if keyOf(0, rowA) == keyOf(0, rowB) {
		t.Fatal("exact keys collapsed rows with different bits")
	}
	if keyOf(16, rowA) != keyOf(16, rowB) {
		t.Fatal("16-bit quantized keys kept near-duplicate rows distinct")
	}
}

// TestQuantizedServiceStillServesAndHits opts a live service into the
// quantized key: duplicate traffic must hit (quantization can never split
// identical inputs) and every label must still match the offline
// classification for the inputs actually sent — the opt-in relaxes the
// guarantee across near-duplicates, not for exact re-sends.
func TestQuantizedServiceStillServesAndHits(t *testing.T) {
	trainTestModels(t)
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)
	reg := NewRegistry()
	if _, err := reg.Install(testModels.sortModel); err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, Options{Cache: CacheOptions{QuantizeBits: 16}})
	for pass := 0; pass < 2; pass++ {
		for i, in := range testModels.sortInputs {
			d, err := svc.Classify("sort", in)
			if err != nil {
				t.Fatal(err)
			}
			if d.Landmark != want[i] {
				t.Fatalf("pass %d input %d: quantized service served %d, offline %d",
					pass, i, d.Landmark, want[i])
			}
		}
	}
	prod := testModels.sortModel.Production
	if prod.Kind == core.SubsetTree && len(prod.Static) > 0 {
		if stats := svc.CacheStats(); stats.Hits == 0 {
			t.Fatalf("duplicate traffic produced no hits under quantization: %+v", stats)
		}
	}
}
