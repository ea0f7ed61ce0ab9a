package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
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
	for i, v := range p.vecs {
		feature.PutBuffer(v)
		p.vecs[i] = nil
	}
	p.vecs = p.vecs[:0]
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
	// split is build's inverse: it appends an input's wire content to the
	// empty payload p, aliasing the input's slices (no copies).
	split func(in core.Input, p *payload) error

	// jsonT is the reflect-built struct type whose json tags reproduce the
	// benchmark's wire object; envT wraps a *jsonT as the "input" field of
	// the classify envelope. Both are computed once by finalize.
	jsonT reflect.Type
	envT  reflect.Type
}

// finalize precomputes the generic JSON carrier types.
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
	sch.envT = reflect.StructOf([]reflect.StructField{{
		Name: "Input",
		Type: reflect.PointerTo(sch.jsonT),
		Tag:  `json:"input"`,
	}})
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
	return sch.payloadOf(pv.Elem()), nil
}

// payloadOf copies a decoded jsonT carrier into a pooled payload.
func (sch *schema) payloadOf(v reflect.Value) *payload {
	p := getPayload()
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
	return p
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

// frameReader reads one binary frame. Its fixed-size fields (magic,
// name, scalar words, trace-context body) land in the reader's own
// scratch: a buffer handed to io.Reader escapes, so scratch on each
// function's stack would cost a heap allocation per field. Frame readers
// are pooled, which makes the header and scalar reads allocation-free.
type frameReader struct {
	r       io.Reader
	scratch [maxWireName]byte
}

var frameReaderPool = sync.Pool{New: func() any { return new(frameReader) }}

// getFrameReader checks a frame reader over r out of the pool.
func getFrameReader(r io.Reader) *frameReader {
	fr := frameReaderPool.Get().(*frameReader)
	fr.r = r
	return fr
}

// release returns the frame reader to the pool; bytes it returned must not
// be used afterwards.
func (fr *frameReader) release() {
	fr.r = nil
	frameReaderPool.Put(fr)
}

// read consumes exactly n (≤ maxWireName) bytes into the scratch and
// returns them; they stay valid until the next read.
func (fr *frameReader) read(n int) ([]byte, error) {
	b := fr.scratch[:n]
	_, err := io.ReadFull(fr.r, b)
	return b, err
}

// readU64 consumes one little-endian 8-byte word.
func (fr *frameReader) readU64() (uint64, error) {
	b, err := fr.read(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// readMagic consumes a 4-byte magic word (ITW1 or the ITX1 trace
// extension) without judging it; callers dispatch on the value.
func (fr *frameReader) readMagic() ([4]byte, error) {
	b, err := fr.read(4)
	if err != nil {
		return [4]byte{}, fmt.Errorf("serve: binary header: %w", err)
	}
	return [4]byte(b), nil
}

// readName consumes the name-length byte and benchmark name that follow a
// validated ITW1 magic. The returned bytes alias the scratch: compare or
// look them up (string(name) in a map index or comparison does not
// allocate) before the next read.
func (fr *frameReader) readName() ([]byte, error) {
	lb, err := fr.read(1)
	if err != nil {
		return nil, fmt.Errorf("serve: binary header: %w", err)
	}
	n := int(lb[0])
	if n == 0 || n > maxWireName {
		return nil, fmt.Errorf("serve: binary name length %d out of range", n)
	}
	name, err := fr.read(n)
	if err != nil {
		return nil, fmt.Errorf("serve: binary name: %w", err)
	}
	return name, nil
}

// readHeader consumes the magic and benchmark name.
func (fr *frameReader) readHeader() ([]byte, error) {
	m, err := fr.readMagic()
	if err != nil {
		return nil, err
	}
	if m != wireMagic {
		return nil, fmt.Errorf("serve: bad binary magic %q", string(m[:]))
	}
	return fr.readName()
}

// payloadPool recycles payload carriers. A payload only ferries slices
// between the wire and an input (build takes the vector backings, split
// lends them), so once that hand-off is done the carrier and its small
// field slices are reused rather than allocated per request.
var payloadPool = sync.Pool{New: func() any { return new(payload) }}

// getPayload returns an empty pooled payload.
func getPayload() *payload { return payloadPool.Get().(*payload) }

// putPayload empties p without releasing its vector backings (they belong
// to an input now, or were only lent by split) and pools it.
func putPayload(p *payload) {
	clear(p.vecs)
	p.ints, p.floats, p.vecs = p.ints[:0], p.floats[:0], p.vecs[:0]
	payloadPool.Put(p)
}

// decodeBinaryPayload streams the schema's fields from fr into a pooled
// payload. Each vector's bytes are read straight into its pooled float64
// buffer, so a large input is materialized exactly once — as the slice
// the feature extractors will read.
func decodeBinaryPayload(fr *frameReader, sch *schema) (*payload, error) {
	p := getPayload()
	fail := func(field string, err error) (*payload, error) {
		p.release()
		putPayload(p)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("truncated frame: %w", err)
		}
		return nil, fmt.Errorf("serve: binary field %q: %w", field, err)
	}
	for _, name := range sch.intFields {
		u, err := fr.readU64()
		if err != nil {
			return fail(name, err)
		}
		p.ints = append(p.ints, int64(u))
	}
	for _, name := range sch.floatFields {
		u, err := fr.readU64()
		if err != nil {
			return fail(name, err)
		}
		p.floats = append(p.floats, math.Float64frombits(u))
	}
	for _, name := range sch.vecFields {
		count, err := fr.readU64()
		if err != nil {
			return fail(name, err)
		}
		if count > maxVecElems {
			return fail(name, fmt.Errorf("vector of %d elements exceeds the request limit", count))
		}
		vec, err := readVector(fr.r, int(count))
		if err != nil {
			return fail(name, err)
		}
		p.vecs = append(p.vecs, vec)
	}
	// A frame carries exactly its schema's fields: trailing bytes mean a
	// client/server schema mismatch, which must fail loudly, not silently.
	if _, err := fr.read(1); err != io.EOF {
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
