package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"unsafe"

	"inputtune/internal/core"
	"inputtune/internal/feature"
)

// This file is the wire layer under the per-benchmark codecs: the
// negotiated format identifiers, the generic JSON serializer (bit-
// compatible with the PR-4 wire structs), and the length-prefixed binary
// format, whose decoder reads each vector's bytes from the request body
// straight into a pooled float64 buffer. Floats travel as little-endian
// IEEE-754 bits, so on little-endian hosts that read is the whole decode;
// big-endian hosts reorder each vector's bytes in place after reading.
//
// Binary frame layout (all integers little-endian):
//
//	offset  size      field
//	0       4         magic "ITW1"
//	4       1         benchmark-name length L (1..64)
//	5       L         benchmark name (the codec key)
//	then, in schema order:
//	  each int scalar    8   uint64 (two's complement)
//	  each float scalar  8   IEEE-754 float64 bits
//	  each vector        8   element count n, then n×8 float64 bits
//
// The frame is self-delimiting (every vector is length-prefixed) and
// self-describing down to the benchmark, whose schema fixes the field
// sequence; trailing bytes after the last field are an error.

// Wire identifies a negotiated wire format for classification inputs.
type Wire int

const (
	// WireJSON is the PR-4 JSON format, kept bit-compatible: requests are
	// {"benchmark": ..., "input": {...}} with per-benchmark input objects.
	WireJSON Wire = iota
	// WireBinary is the length-prefixed binary format
	// (Content-Type: application/x-inputtune).
	WireBinary
)

// Content types the classify endpoint negotiates on.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-inputtune"
)

func (w Wire) String() string {
	switch w {
	case WireJSON:
		return "json"
	case WireBinary:
		return "binary"
	default:
		return fmt.Sprintf("wire(%d)", int(w))
	}
}

// ContentType returns the HTTP content type announcing the format.
func (w Wire) ContentType() string {
	if w == WireBinary {
		return ContentTypeBinary
	}
	return ContentTypeJSON
}

// ParseWire resolves a -wire flag value.
func ParseWire(s string) (Wire, error) {
	switch s {
	case "json":
		return WireJSON, nil
	case "binary":
		return WireBinary, nil
	default:
		return 0, fmt.Errorf("serve: unknown wire format %q (want json or binary)", s)
	}
}

var wireMagic = [4]byte{'I', 'T', 'W', '1'}

const (
	// maxWireName bounds the benchmark-name field.
	maxWireName = 64
	// maxVecElems bounds a single vector's declared element count: no
	// well-formed request can carry more than MaxRequestBytes of payload.
	maxVecElems = MaxRequestBytes / 8
	// vecPreAlloc caps how much a decoder pre-allocates on the strength of
	// a declared count alone; a lying header therefore costs at most this
	// many elements before the stream runs dry and errors.
	vecPreAlloc = 1 << 16
)

// payload is the flat decoded content of one request: every wire format
// reduces to it, and every input builds from it, so the two formats cannot
// diverge in what they carry.
type payload struct {
	ints   []int64
	floats []float64
	vecs   [][]float64
}

// release returns the payload's vector backings to the shared buffer pool.
func (p *payload) release() {
	if p == nil {
		return
	}
	for _, v := range p.vecs {
		feature.PutBuffer(v)
	}
	p.vecs = nil
}

// schema describes one benchmark's wire content: named scalar and vector
// fields (the names double as the JSON keys, the order is the binary field
// sequence) plus the two conversions between payload and the benchmark's
// concrete input type. Everything else — JSON, binary, negotiation,
// pooling — is generic over it.
type schema struct {
	intFields   []string
	floatFields []string
	vecFields   []string
	// build validates a payload and assembles the input, taking ownership
	// of the vector backings.
	build func(p *payload) (core.Input, error)
	// split is build's inverse: it exposes an input's wire content. The
	// returned payload aliases the input's slices (no copies).
	split func(in core.Input) (*payload, error)

	// jsonT is the reflect-built struct type whose json tags reproduce the
	// benchmark's wire object; computed once by finalize.
	jsonT reflect.Type
}

// finalize precomputes the generic JSON carrier type.
func (sch *schema) finalize() *schema {
	var fields []reflect.StructField
	add := func(name string, t reflect.Type) {
		fields = append(fields, reflect.StructField{
			Name: fmt.Sprintf("F%d", len(fields)),
			Type: t,
			Tag:  reflect.StructTag(`json:"` + name + `"`),
		})
	}
	for _, n := range sch.intFields {
		add(n, reflect.TypeOf(int64(0)))
	}
	for _, n := range sch.floatFields {
		add(n, reflect.TypeOf(float64(0)))
	}
	for _, n := range sch.vecFields {
		add(n, reflect.TypeOf([]float64(nil)))
	}
	sch.jsonT = reflect.StructOf(fields)
	return sch
}

// numFields returns the total scalar+vector field count.
func (sch *schema) numFields() int {
	return len(sch.intFields) + len(sch.floatFields) + len(sch.vecFields)
}

// decodeJSON parses one wire object (the "input" value of a JSON request)
// into a payload. Unknown keys are ignored and missing fields decode to
// zero values, exactly like the PR-4 wire structs.
func (sch *schema) decodeJSON(raw []byte) (*payload, error) {
	pv := reflect.New(sch.jsonT)
	if err := json.Unmarshal(raw, pv.Interface()); err != nil {
		return nil, err
	}
	v := pv.Elem()
	p := &payload{}
	i := 0
	for range sch.intFields {
		p.ints = append(p.ints, v.Field(i).Int())
		i++
	}
	for range sch.floatFields {
		p.floats = append(p.floats, v.Field(i).Float())
		i++
	}
	for range sch.vecFields {
		p.vecs = append(p.vecs, v.Field(i).Interface().([]float64))
		i++
	}
	return p, nil
}

// encodeJSON renders a payload as the benchmark's JSON wire object.
func (sch *schema) encodeJSON(p *payload) ([]byte, error) {
	pv := reflect.New(sch.jsonT)
	v := pv.Elem()
	i := 0
	for _, x := range p.ints {
		v.Field(i).SetInt(x)
		i++
	}
	for _, x := range p.floats {
		v.Field(i).SetFloat(x)
		i++
	}
	for _, x := range p.vecs {
		v.Field(i).Set(reflect.ValueOf(x))
		i++
	}
	return json.Marshal(pv.Interface())
}

// appendBinary renders the full binary frame (header + payload) for the
// named benchmark into dst.
func (sch *schema) appendBinary(dst []byte, name string, p *payload) ([]byte, error) {
	if len(name) == 0 || len(name) > maxWireName {
		return nil, fmt.Errorf("serve: benchmark name %q does not fit the wire header", name)
	}
	dst = append(dst, wireMagic[:]...)
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	var buf [8]byte
	putU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		dst = append(dst, buf[:]...)
	}
	for _, x := range p.ints {
		putU64(uint64(x))
	}
	for _, x := range p.floats {
		putU64(math.Float64bits(x))
	}
	for _, vec := range p.vecs {
		putU64(uint64(len(vec)))
		for _, x := range vec {
			putU64(math.Float64bits(x))
		}
	}
	return dst, nil
}

// readMagic consumes a 4-byte magic word (ITW1 or the ITX1 trace
// extension) without judging it; callers dispatch on the value.
func readMagic(r io.Reader) ([4]byte, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return m, fmt.Errorf("serve: binary header: %w", err)
	}
	return m, nil
}

// readBinaryName consumes the name-length byte and benchmark name that
// follow a validated ITW1 magic.
func readBinaryName(r io.Reader) (string, error) {
	var lb [1]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return "", fmt.Errorf("serve: binary header: %w", err)
	}
	n := int(lb[0])
	if n == 0 || n > maxWireName {
		return "", fmt.Errorf("serve: binary name length %d out of range", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", fmt.Errorf("serve: binary name: %w", err)
	}
	return string(name), nil
}

// readBinaryHeader consumes the magic and benchmark name.
func readBinaryHeader(r io.Reader) (string, error) {
	m, err := readMagic(r)
	if err != nil {
		return "", err
	}
	if m != wireMagic {
		return "", fmt.Errorf("serve: bad binary magic %q", m[:])
	}
	return readBinaryName(r)
}

// decodeBinaryPayload streams the schema's fields from r. Each vector's
// bytes are read straight into its pooled float64 buffer, so a large input
// is materialized exactly once — as the slice the feature extractors will
// read.
func decodeBinaryPayload(r io.Reader, sch *schema) (*payload, error) {
	var word [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(word[:]), nil
	}
	p := &payload{}
	fail := func(field string, err error) (*payload, error) {
		p.release()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("truncated frame: %w", err)
		}
		return nil, fmt.Errorf("serve: binary field %q: %w", field, err)
	}
	for _, name := range sch.intFields {
		u, err := readU64()
		if err != nil {
			return fail(name, err)
		}
		p.ints = append(p.ints, int64(u))
	}
	for _, name := range sch.floatFields {
		u, err := readU64()
		if err != nil {
			return fail(name, err)
		}
		p.floats = append(p.floats, math.Float64frombits(u))
	}
	for _, name := range sch.vecFields {
		count, err := readU64()
		if err != nil {
			return fail(name, err)
		}
		if count > maxVecElems {
			return fail(name, fmt.Errorf("vector of %d elements exceeds the request limit", count))
		}
		vec, err := readVector(r, int(count))
		if err != nil {
			return fail(name, err)
		}
		p.vecs = append(p.vecs, vec)
	}
	// A frame carries exactly its schema's fields: trailing bytes mean a
	// client/server schema mismatch, which must fail loudly, not silently.
	if _, err := io.ReadFull(r, word[:1]); err != io.EOF {
		return fail("frame end", fmt.Errorf("trailing bytes after the last field"))
	}
	return p, nil
}

// littleEndianHost reports whether float64s in memory already have
// ITW1's little-endian byte order. It is a variable so tests can force
// the portable conversion on any host.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readVector reads n float64s from r into a pooled buffer. The declared
// count is trusted for at most vecPreAlloc elements: past that the buffer
// grows through the pool only as bytes actually arrive. On error the
// buffer goes back to the pool.
func readVector(r io.Reader, n int) ([]float64, error) {
	vec := feature.GetBuffer(min(n, vecPreAlloc))
	for len(vec) < n {
		if len(vec) == cap(vec) {
			next := append(feature.GetBuffer(min(n, 2*cap(vec))), vec...)
			feature.PutBuffer(vec)
			vec = next
		}
		lo := len(vec)
		vec = vec[:min(n, cap(vec))]
		// ITW1 floats are little-endian IEEE-754 bits: read them into the
		// buffer's own bytes, then reorder in place on big-endian hosts.
		dst := vec[lo:]
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
		if _, err := io.ReadFull(r, raw); err != nil {
			feature.PutBuffer(vec)
			return nil, err
		}
		if !littleEndianHost {
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	}
	return vec, nil
}
