package serve

import (
	"bytes"
	"fmt"
	"io"

	"inputtune/internal/benchmarks/binpack"
	"inputtune/internal/benchmarks/clustering"
	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/benchmarks/svd"
	"inputtune/internal/core"
	"inputtune/internal/linalg"
	"inputtune/internal/pde"
)

// Codec is one benchmark's wire format, symmetric across the negotiated
// encodings: Decode parses a request body into the program's concrete
// input type and Encode renders an input back onto the wire, for both
// WireJSON (the PR-4 format, kept bit-compatible) and WireBinary (the
// length-prefixed format of wire.go). Per benchmark only the schema —
// field names plus the payload↔input conversions — is specific; all
// serialization is generic, so the two formats carry identical content by
// construction and served labels cannot depend on the format (enforced by
// TestServedLabelsBitIdenticalAcrossWires).
//
// The wire carries only what classification needs — the raw data feature
// extractors read. Execution-only details (e.g. the clustering inputs'
// internal decorrelation seed) are deliberately not part of it: the
// serving runtime classifies, it does not run the workload.
type Codec struct {
	// Name is the program name (Program.Name()) the codec serves.
	Name string
	// NewProgram constructs the benchmark program.
	NewProgram func() core.Program

	sch *schema
}

// maxDimField bounds scalar dimension fields (n, rows, cols) so that
// element-count arithmetic (n², n³, rows·cols) can never overflow before
// validation compares it against the actual vector lengths.
const maxDimField = 1 << 20

// codecByName indexes builtinCodecs once for the per-request lookup.
var codecByName = func() map[string]*Codec {
	m := make(map[string]*Codec, len(builtinCodecs))
	for _, c := range builtinCodecs {
		m[c.Name] = c
	}
	return m
}()

// Codecs returns the builtin benchmark codecs keyed by program name.
func Codecs() map[string]*Codec {
	out := make(map[string]*Codec, len(codecByName))
	for name, c := range codecByName {
		out[name] = c
	}
	return out
}

// LookupCodec returns the codec for a program name.
func LookupCodec(name string) (*Codec, error) {
	c, ok := codecByName[name]
	if !ok {
		return nil, fmt.Errorf("serve: no codec for benchmark %q", name)
	}
	return c, nil
}

// BuiltinRegistry returns a registry with every builtin benchmark program
// registered (no models loaded yet).
func BuiltinRegistry() *Registry {
	r := NewRegistry()
	for _, c := range builtinCodecs {
		// Names are distinct by construction; Register cannot fail here.
		if err := r.Register(c.NewProgram()); err != nil {
			panic(err)
		}
	}
	return r
}

// Decode parses one wire body into the benchmark's input type. For
// WireJSON, r carries the input object (the "input" value of the request
// envelope); for WireBinary it carries a full frame, whose benchmark name
// must match the codec's.
func (c *Codec) Decode(wire Wire, r io.Reader) (core.Input, error) {
	switch wire {
	case WireJSON:
		raw, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		return c.DecodeJSON(raw)
	case WireBinary:
		fr := getFrameReader(r)
		defer fr.release()
		name, err := fr.readHeader()
		if err != nil {
			return nil, err
		}
		if string(name) != c.Name {
			return nil, fmt.Errorf("serve: binary frame is for benchmark %q, codec serves %q", name, c.Name)
		}
		return c.decodeBinaryBody(fr)
	default:
		return nil, fmt.Errorf("serve: unknown wire format %d", int(wire))
	}
}

// DecodeJSON parses the benchmark's JSON input object.
func (c *Codec) DecodeJSON(raw []byte) (core.Input, error) {
	p, err := c.sch.decodeJSON(raw)
	if err != nil {
		return nil, err
	}
	return c.buildInput(p)
}

// decodeBinaryBody parses a binary frame whose header has been consumed.
func (c *Codec) decodeBinaryBody(fr *frameReader) (core.Input, error) {
	p, err := decodeBinaryPayload(fr, c.sch)
	if err != nil {
		return nil, err
	}
	return c.buildInput(p)
}

// buildInput assembles the validated input, returning payload buffers to
// the pool on rejection, and pools the emptied payload carrier.
func (c *Codec) buildInput(p *payload) (core.Input, error) {
	in, err := c.sch.build(p)
	if err != nil {
		p.release()
	}
	putPayload(p)
	return in, err
}

// Encode renders an input onto w in the chosen wire format: the JSON input
// object for WireJSON, a full self-describing frame for WireBinary.
func (c *Codec) Encode(wire Wire, w io.Writer, in core.Input) error {
	p := getPayload()
	defer putPayload(p)
	if err := c.sch.split(in, p); err != nil {
		return err
	}
	switch wire {
	case WireJSON:
		data, err := c.sch.encodeJSON(p)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	case WireBinary:
		frame, err := c.sch.appendBinary(nil, c.Name, p)
		if err != nil {
			return err
		}
		_, err = w.Write(frame)
		return err
	default:
		return fmt.Errorf("serve: unknown wire format %d", int(wire))
	}
}

// EncodeJSON is Encode(WireJSON) returning the bytes.
func (c *Codec) EncodeJSON(in core.Input) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Encode(WireJSON, &buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Release returns a decoded input's vector backings to the shared buffer
// pool. Only the owner of the input may call it — the serving handler
// does, once classification has completed — and the input must not be
// touched afterwards.
func (c *Codec) Release(in core.Input) {
	if in == nil {
		return
	}
	p := getPayload()
	if c.sch.split(in, p) == nil {
		p.release()
	}
	putPayload(p)
}

// DecodeBinaryRequest reads one full binary classify request — the frame
// names its benchmark, so no envelope is needed — and returns the codec it
// resolved along with the decoded input. A leading ITX1 trace-context
// extension is accepted and discarded; use DecodeBinaryRequestContext to
// keep the trace ID.
func DecodeBinaryRequest(r io.Reader) (*Codec, core.Input, error) {
	c, in, _, err := DecodeBinaryRequestContext(r)
	return c, in, err
}

// DecodeBinaryRequestContext is DecodeBinaryRequest plus the trace ID of
// an optional leading ITX1 trace-context extension (0 when absent). The
// extension is validated strictly: an ITX1 magic followed by a truncated
// body, zero ID, or unknown flags is an error, never silently skipped.
func DecodeBinaryRequestContext(r io.Reader) (*Codec, core.Input, uint64, error) {
	fr := getFrameReader(r)
	defer fr.release()
	magic, err := fr.readMagic()
	if err != nil {
		return nil, nil, 0, err
	}
	var traceID uint64
	if magic == traceMagic {
		traceID, err = fr.readTraceContextBody()
		if err != nil {
			return nil, nil, 0, err
		}
		if magic, err = fr.readMagic(); err != nil {
			return nil, nil, 0, err
		}
	}
	if magic != wireMagic {
		return nil, nil, 0, fmt.Errorf("serve: bad binary magic %q", string(magic[:]))
	}
	name, err := fr.readName()
	if err != nil {
		return nil, nil, 0, err
	}
	c, ok := codecByName[string(name)]
	if !ok {
		return nil, nil, 0, fmt.Errorf("serve: no codec for benchmark %q", name)
	}
	in, err := c.decodeBinaryBody(fr)
	if err != nil {
		return nil, nil, 0, err
	}
	return c, in, traceID, nil
}

// EncodeBinaryRequest renders one full binary classify request for the
// named benchmark (the client-side counterpart of DecodeBinaryRequest).
func EncodeBinaryRequest(w io.Writer, benchmark string, in core.Input) error {
	c, err := LookupCodec(benchmark)
	if err != nil {
		return err
	}
	return c.Encode(WireBinary, w, in)
}

var builtinCodecs = []*Codec{
	{
		Name:       "sort",
		NewProgram: func() core.Program { return sortbench.New() },
		sch: (&schema{
			vecFields: []string{"data"},
			build: func(p *payload) (core.Input, error) {
				if len(p.vecs[0]) == 0 {
					return nil, fmt.Errorf("sort input needs a non-empty \"data\" array")
				}
				return &sortbench.List{Data: p.vecs[0]}, nil
			},
			split: func(in core.Input, p *payload) error {
				l, ok := in.(*sortbench.List)
				if !ok {
					return fmt.Errorf("sort codec: input is %T", in)
				}
				p.vecs = append(p.vecs, l.Data)
				return nil
			},
		}).finalize(),
	},
	{
		Name:       "clustering",
		NewProgram: func() core.Program { return clustering.New() },
		sch: (&schema{
			vecFields: []string{"x", "y"},
			build: func(p *payload) (core.Input, error) {
				x, y := p.vecs[0], p.vecs[1]
				if len(x) == 0 || len(x) != len(y) {
					return nil, fmt.Errorf("clustering input needs equal-length non-empty \"x\" and \"y\" arrays")
				}
				return &clustering.Points{X: x, Y: y}, nil
			},
			split: func(in core.Input, p *payload) error {
				pt, ok := in.(*clustering.Points)
				if !ok {
					return fmt.Errorf("clustering codec: input is %T", in)
				}
				p.vecs = append(p.vecs, pt.X, pt.Y)
				return nil
			},
		}).finalize(),
	},
	{
		Name:       "binpacking",
		NewProgram: func() core.Program { return binpack.New() },
		sch: (&schema{
			vecFields: []string{"sizes"},
			build: func(p *payload) (core.Input, error) {
				if len(p.vecs[0]) == 0 {
					return nil, fmt.Errorf("binpacking input needs a non-empty \"sizes\" array")
				}
				return &binpack.Items{Sizes: p.vecs[0]}, nil
			},
			split: func(in core.Input, p *payload) error {
				it, ok := in.(*binpack.Items)
				if !ok {
					return fmt.Errorf("binpacking codec: input is %T", in)
				}
				p.vecs = append(p.vecs, it.Sizes)
				return nil
			},
		}).finalize(),
	},
	{
		Name:       "svd",
		NewProgram: func() core.Program { return svd.New() },
		sch: (&schema{
			intFields: []string{"rows", "cols"},
			vecFields: []string{"data"},
			build: func(p *payload) (core.Input, error) {
				rows, cols := p.ints[0], p.ints[1]
				if rows <= 0 || cols <= 0 || rows > maxDimField || cols > maxDimField ||
					int64(len(p.vecs[0])) != rows*cols {
					return nil, fmt.Errorf("svd input needs rows*cols == len(data), both positive")
				}
				return &svd.MatrixInput{A: &linalg.Matrix{Rows: int(rows), Cols: int(cols), Data: p.vecs[0]}}, nil
			},
			split: func(in core.Input, p *payload) error {
				m, ok := in.(*svd.MatrixInput)
				if !ok {
					return fmt.Errorf("svd codec: input is %T", in)
				}
				p.ints = append(p.ints, int64(m.A.Rows), int64(m.A.Cols))
				p.vecs = append(p.vecs, m.A.Data)
				return nil
			},
		}).finalize(),
	},
	{
		Name:       "poisson2d",
		NewProgram: func() core.Program { return poisson2d.New() },
		sch: (&schema{
			intFields: []string{"n"},
			vecFields: []string{"f"},
			build: func(p *payload) (core.Input, error) {
				n := p.ints[0]
				if n <= 0 || n > maxDimField || int64(len(p.vecs[0])) != n*n {
					return nil, fmt.Errorf("poisson2d input needs len(f) == n*n, n positive")
				}
				return &poisson2d.Problem{N: int(n), F: &pde.Grid2D{N: int(n), Data: p.vecs[0]}}, nil
			},
			split: func(in core.Input, p *payload) error {
				pr, ok := in.(*poisson2d.Problem)
				if !ok {
					return fmt.Errorf("poisson2d codec: input is %T", in)
				}
				p.ints = append(p.ints, int64(pr.N))
				p.vecs = append(p.vecs, pr.F.Data)
				return nil
			},
		}).finalize(),
	},
	{
		Name:       "helmholtz3d",
		NewProgram: func() core.Program { return helmholtz3d.New() },
		sch: (&schema{
			intFields:   []string{"n"},
			floatFields: []string{"c"},
			vecFields:   []string{"f", "a"},
			build: func(p *payload) (core.Input, error) {
				n := p.ints[0]
				if n <= 0 || n > maxDimField {
					return nil, fmt.Errorf("helmholtz3d input needs len(f) == len(a) == n³, n positive")
				}
				n3 := n * n * n
				if int64(len(p.vecs[0])) != n3 || int64(len(p.vecs[1])) != n3 {
					return nil, fmt.Errorf("helmholtz3d input needs len(f) == len(a) == n³, n positive")
				}
				return &helmholtz3d.Problem{
					N:  int(n),
					Op: &pde.Helmholtz3D{A: &pde.Grid3D{N: int(n), Data: p.vecs[1]}, C: p.floats[0]},
					F:  &pde.Grid3D{N: int(n), Data: p.vecs[0]},
				}, nil
			},
			split: func(in core.Input, p *payload) error {
				pr, ok := in.(*helmholtz3d.Problem)
				if !ok {
					return fmt.Errorf("helmholtz3d codec: input is %T", in)
				}
				p.ints = append(p.ints, int64(pr.N))
				p.floats = append(p.floats, pr.Op.C)
				p.vecs = append(p.vecs, pr.F.Data, pr.Op.A.Data)
				return nil
			},
		}).finalize(),
	},
}
