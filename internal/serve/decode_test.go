package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
)

// vecSchema is a two-vector schema for decoding raw vector payloads
// without a benchmark's build validation in the way.
var vecSchema = &schema{vecFields: []string{"a", "b"}}

// vecBody renders the binary payload (no frame header) of vecSchema.
func vecBody(vecs ...[]float64) []byte {
	var out []byte
	for _, v := range vecs {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(v)))
		for _, x := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

// specialFloats covers the bit patterns a conversion could disturb:
// signalling and quiet NaNs with payloads, both zeros, subnormals and the
// infinities.
var specialFloats = []float64{
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0x7ff8deadbeef0001), // quiet NaN with payload
	math.Float64frombits(0xfff4000000000abc), // negative NaN with payload
	math.Copysign(0, -1),
	0,
	math.Float64frombits(1),                  // smallest subnormal
	math.Float64frombits(0x800fffffffffffff), // largest negative subnormal
	math.Inf(1),
	math.Inf(-1),
	math.MaxFloat64,
	-1.5,
}

// decodeVecs decodes a vecSchema body, in short reads, with the host fast
// path on or off.
func decodeVecs(t *testing.T, body []byte, fast bool) [][]float64 {
	t.Helper()
	saved := littleEndianHost
	littleEndianHost = littleEndianHost && fast
	defer func() { littleEndianHost = saved }()
	p, err := decodeBinaryPayload(iotest.HalfReader(bytes.NewReader(body)), vecSchema)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(p.vecs))
	for i, v := range p.vecs {
		out[i] = append([]float64{}, v...)
	}
	p.release()
	return out
}

// TestVectorDecodePathsBitIdentical is the differential test of the
// vector decoder: the byte-view fast path and the portable conversion
// loop must both reproduce every encoded bit pattern, at lengths around
// the pool's size classes and the pre-allocation limit.
func TestVectorDecodePathsBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 1 << 16, 1<<16 + 1} {
		a := make([]float64, n)
		b := make([]float64, n/2)
		for i := range a {
			a[i] = specialFloats[i%len(specialFloats)]
			if i%3 == 1 {
				a[i] = float64(i) * -0.75
			}
		}
		for i := range b {
			b[i] = specialFloats[(i+5)%len(specialFloats)]
		}
		body := vecBody(a, b)
		fast := decodeVecs(t, body, true)
		portable := decodeVecs(t, body, false)
		for vi, want := range [][]float64{a, b} {
			if len(fast[vi]) != len(want) || len(portable[vi]) != len(want) {
				t.Fatalf("n=%d vec %d: lengths fast=%d portable=%d want %d", n, vi, len(fast[vi]), len(portable[vi]), len(want))
			}
			for i := range want {
				w := math.Float64bits(want[i])
				if f, p := math.Float64bits(fast[vi][i]), math.Float64bits(portable[vi][i]); f != w || p != w {
					t.Fatalf("n=%d vec %d elem %d: fast %#x portable %#x want %#x", n, vi, i, f, p, w)
				}
			}
		}
	}
}

// TestVectorDecodeEmptyVector pins that an empty vector decodes to a
// non-nil, zero-length slice (JSON re-encodes it as [], not null).
func TestVectorDecodeEmptyVector(t *testing.T) {
	p, err := decodeBinaryPayload(bytes.NewReader(vecBody(nil, []float64{2})), vecSchema)
	if err != nil {
		t.Fatal(err)
	}
	if p.vecs[0] == nil || len(p.vecs[0]) != 0 {
		t.Fatalf("empty vector decoded to %#v", p.vecs[0])
	}
	if len(p.vecs[1]) != 1 || p.vecs[1][0] != 2 {
		t.Fatalf("vector after an empty one decoded to %v", p.vecs[1])
	}
	p.release()
}

// TestVectorDecodeOutgrowsPreAllocation decodes a vector several times
// longer than the decoder trusts its declared count for (vecPreAlloc), on
// the fast and the portable path, and checks every value survives the
// pooled re-growths intact.
func TestVectorDecodeOutgrowsPreAllocation(t *testing.T) {
	const n = 3*vecPreAlloc + 17
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i) * 0.5
	}
	for _, fast := range []bool{true, false} {
		got := decodeVecs(t, vecBody(a, nil), fast)
		if len(got[0]) != n || len(got[1]) != 0 {
			t.Fatalf("fast=%v: decoded lengths %d, %d, want %d, 0", fast, len(got[0]), len(got[1]), n)
		}
		for i := range a {
			if got[0][i] != a[i] {
				t.Fatalf("fast=%v: value %d corrupted across growth: %v", fast, i, got[0][i])
			}
		}
	}
}

// totalAlloc returns the bytes allocated by f.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVectorDecodeLyingHeader sends a frame that declares the largest
// legal vector but carries ten floats: decode must fail, having trusted
// the declared count for at most vecPreAlloc elements.
func TestVectorDecodeLyingHeader(t *testing.T) {
	body := binary.LittleEndian.AppendUint64(nil, maxVecElems)
	for i := 0; i < 10; i++ {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(i)))
	}
	var err error
	alloc := totalAlloc(func() {
		_, err = decodeBinaryPayload(bytes.NewReader(body), vecSchema)
	})
	if err == nil {
		t.Fatal("a frame shorter than its declared vector decoded")
	}
	if bound := uint64(vecPreAlloc*8 + 64<<10); alloc > bound {
		t.Fatalf("lying header allocated %d bytes, bound %d", alloc, bound)
	}
}

// TestVectorDecodeTruncationReleasesBuffer cuts a frame inside a vector,
// repeatedly: each failed decode must hand its partly filled buffer back
// to the pool, so the repetitions reuse one backing instead of
// allocating a fresh one each. (The race detector makes sync.Pool drop a
// quarter of its Puts, hence the bound of half a buffer per frame.)
func TestVectorDecodeTruncationReleasesBuffer(t *testing.T) {
	a := make([]float64, 4096)
	body := vecBody(a, nil)
	body = body[:len(body)/2]
	const reps = 200
	alloc := totalAlloc(func() {
		for i := 0; i < reps; i++ {
			if _, err := decodeBinaryPayload(bytes.NewReader(body), vecSchema); err == nil {
				t.Fatal("truncated frame decoded")
			}
		}
	})
	if perRep := alloc / reps; perRep > uint64(len(a)*8/2) {
		t.Fatalf("truncated decode allocated %d bytes per frame: its %d-byte buffer is not reused", perRep, len(a)*8)
	}
}

// benchFrames returns the binary request frames the decode benchmarks and
// the allocation pin run on: a 2k sort list and the PDE inputs at the
// sizes the served PDE workload uses.
func benchFrames(tb testing.TB) []struct {
	name  string
	frame []byte
} {
	tb.Helper()
	data := make([]float64, 2048)
	for i := range data {
		data[i] = float64((i * 7919) % 2048)
	}
	inputs := []struct {
		name, bench string
		in          core.Input
	}{
		{"sort-2k", "sort", &sortbench.List{Data: data}},
		{"poisson2d-63", "poisson2d", poisson2d.GenerateMix(poisson2d.MixOptions{Count: 1, Seed: 3, Sizes: []int{63}})[0]},
		{"helmholtz3d-15", "helmholtz3d", helmholtz3d.GenerateMix(helmholtz3d.MixOptions{Count: 1, Seed: 3, Sizes: []int{15}})[0]},
	}
	out := make([]struct {
		name  string
		frame []byte
	}, len(inputs))
	for i, c := range inputs {
		var buf bytes.Buffer
		if err := EncodeBinaryRequest(&buf, c.bench, c.in); err != nil {
			tb.Fatal(err)
		}
		out[i].name, out[i].frame = c.name, buf.Bytes()
	}
	return out
}

// decodeAllocsCeiling is the allocations per DecodeBinaryRequest call,
// pool warm, for each benchFrames frame: header words, the name, the
// payload and its slices, the input value and Release's payload view.
// None scales with the frame: vector backings come from the pool.
var decodeAllocsCeiling = map[string]float64{
	"sort-2k":        12,
	"poisson2d-63":   15,
	"helmholtz3d-15": 21,
}

// TestDecodeBinaryRequestAllocs pins DecodeBinaryRequest's allocations
// per frame.
func TestDecodeBinaryRequestAllocs(t *testing.T) {
	for _, f := range benchFrames(t) {
		r := bytes.NewReader(nil)
		decode := func() {
			r.Reset(f.frame)
			c, in, err := DecodeBinaryRequest(r)
			if err != nil {
				t.Fatal(err)
			}
			c.Release(in)
		}
		decode()
		got := testing.AllocsPerRun(200, decode)
		if got > decodeAllocsCeiling[f.name] {
			t.Errorf("%s: %v allocations per decode, ceiling %v", f.name, got, decodeAllocsCeiling[f.name])
		}
	}
}

// BenchmarkDecodeBinaryRequest is the wire-decode layer of the serving
// ledger: one binary frame to a pooled core.Input and back to the pool.
func BenchmarkDecodeBinaryRequest(b *testing.B) {
	for _, f := range benchFrames(b) {
		b.Run(f.name, func(b *testing.B) {
			r := bytes.NewReader(nil)
			b.SetBytes(int64(len(f.frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(f.frame)
				c, in, err := DecodeBinaryRequest(r)
				if err != nil {
					b.Fatal(err)
				}
				c.Release(in)
			}
		})
	}
}

// BenchmarkRegistryLoad is the reload layer: parse, validate, compile and
// publish one SaveModel artifact.
func BenchmarkRegistryLoad(b *testing.B) {
	reg := sortServiceRegistry(b)
	artifact := testModels.sortArtifct
	b.SetBytes(int64(len(artifact)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Load(artifact); err != nil {
			b.Fatal(err)
		}
	}
}
