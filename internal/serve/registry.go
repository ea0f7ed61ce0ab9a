package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"inputtune/internal/core"
)

// Snapshot is one immutable loaded model: the unit the registry swaps
// atomically under live traffic. Requests resolve a snapshot once and use
// it for their whole lifetime, so a concurrent reload never mixes two
// models inside one request.
type Snapshot struct {
	// Benchmark is the program name the model is bound to.
	Benchmark string
	// Model is the deployable model (safe for concurrent readers).
	Model *core.Model
	// Generation uniquely identifies this load across the whole registry
	// (monotonic, never reused), which also makes it a sound decision-cache
	// key component: entries from superseded models can never alias a new
	// model's entries.
	Generation uint64
	// ArtifactBytes is the size of the JSON artifact this snapshot was
	// loaded from (0 for models registered in-process).
	ArtifactBytes int
	// ArtifactHash is a content hash of the artifact bytes (0 for models
	// installed in-process). Unlike Generation — which is a per-registry
	// counter — it identifies the model VERSION across replicas, which is
	// what fleet generation-skew accounting needs: two replicas at
	// different generation numbers may well serve the same artifact.
	ArtifactHash uint64
	// Descriptions renders each of the model's landmarks against the
	// program's space (Space.DescribeConfig), once per publish rather than
	// once per served decision.
	Descriptions []string
}

// describeLandmarks renders every landmark of m for Snapshot.Descriptions.
func describeLandmarks(m *core.Model) []string {
	space := m.Program.Space()
	out := make([]string, len(m.Landmarks))
	for i, lm := range m.Landmarks {
		out[i] = space.DescribeConfig(lm)
	}
	return out
}

// hashArtifact is FNV-1a 64 over the artifact bytes.
func hashArtifact(artifact []byte) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	for _, b := range artifact {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// entry is one named benchmark slot.
type entry struct {
	prog core.Program
	// cur is nil until the first successful load.
	cur atomic.Pointer[Snapshot]
	// loadMu serialises loads for this benchmark so snapshot generations
	// are stored in increasing order; the read path never takes it.
	loadMu sync.Mutex
}

// Registry maps benchmark names to hot-swappable model snapshots. The
// read path (Get) is lock-free after an RWMutex-guarded map lookup; Load
// builds and validates the incoming artifact completely before publishing
// it with one atomic pointer store, so traffic observes either the old
// model or the new one, never a partial state, and zero requests drop
// during a reload.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	gen     atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Register declares a benchmark the registry can serve, keyed by
// prog.Name(). Registering the same name twice is an error; models load
// separately via Load (or Install).
func (r *Registry) Register(prog core.Program) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := prog.Name()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("serve: benchmark %q already registered", name)
	}
	r.entries[name] = &entry{prog: prog}
	return nil
}

// lookup returns the entry for name.
func (r *Registry) lookup(name string) (*entry, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("serve: unknown benchmark %q", name)
	}
	return e, nil
}

// benchmarkField returns the top-level "benchmark" value of a JSON object
// ("" when the key is absent): the name a reload artifact and a JSON
// classify envelope are routed by. It scans tokens only as far as that
// key, which SaveModel writes second and clients write first, so the body
// is parsed in full once, by whatever the name selects. The key matches
// case-insensitively, as encoding/json matches it into a struct field.
func benchmarkField(data []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil {
		return "", err
	} else if tok != json.Delim('{') {
		return "", fmt.Errorf("not a JSON object")
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return "", err
		}
		if k, _ := key.(string); strings.EqualFold(k, "benchmark") {
			var name string
			err := dec.Decode(&name)
			return name, err
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return "", err
		}
	}
	return "", nil
}

// Load parses a SaveModel artifact, validates it against the benchmark
// named INSIDE the artifact, and atomically publishes it. On any error the
// previously published snapshot (if one exists) keeps serving untouched.
func (r *Registry) Load(artifact []byte) (*Snapshot, error) {
	name, err := benchmarkField(artifact)
	if err != nil {
		return nil, fmt.Errorf("serve: unreadable artifact: %w", err)
	}
	if name == "" {
		return nil, fmt.Errorf("serve: artifact names no benchmark")
	}
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	model, err := core.LoadModel(e.prog, bytes.NewReader(artifact))
	if err != nil {
		return nil, fmt.Errorf("serve: rejecting artifact for %q: %w", name, err)
	}
	// Lower the production classifier into its compiled (flat-array) form
	// before the snapshot goes live, so every request served from it walks
	// the branch-free path.
	model.CompileClassifiers()
	snap := &Snapshot{
		Benchmark:     name,
		Model:         model,
		Generation:    r.gen.Add(1),
		ArtifactBytes: len(artifact),
		ArtifactHash:  hashArtifact(artifact),
		Descriptions:  describeLandmarks(model),
	}
	e.cur.Store(snap)
	return snap, nil
}

// ensure returns the entry for prog's name, creating it under one lock
// acquisition so concurrent first-time callers race benignly.
func (r *Registry) ensure(prog core.Program) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := prog.Name()
	if e := r.entries[name]; e != nil {
		return e
	}
	e := &entry{prog: prog}
	r.entries[name] = e
	return e
}

// Install publishes an in-process trained model directly (no artifact
// round-trip), registering the program first if needed. It is the path
// cmd/inputtuned's -train convenience and the tests use.
func (r *Registry) Install(m *core.Model) (*Snapshot, error) {
	e := r.ensure(m.Program)
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	m.CompileClassifiers()
	snap := &Snapshot{
		Benchmark:    m.Program.Name(),
		Model:        m,
		Generation:   r.gen.Add(1),
		Descriptions: describeLandmarks(m),
	}
	e.cur.Store(snap)
	return snap, nil
}

// Get returns the current snapshot for the named benchmark. The second
// return is false when the benchmark is unknown or no model has been
// loaded yet.
func (r *Registry) Get(name string) (*Snapshot, bool) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	snap := e.cur.Load()
	return snap, snap != nil
}

// Snapshots returns the current snapshot of every benchmark with a loaded
// model, sorted by name (for /v1/models and the metrics surface).
func (r *Registry) Snapshots() []*Snapshot {
	r.mu.RLock()
	out := make([]*Snapshot, 0, len(r.entries))
	for _, e := range r.entries {
		if snap := e.cur.Load(); snap != nil {
			out = append(out, snap)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Benchmark < out[b].Benchmark })
	return out
}

// Names returns every registered benchmark name, sorted, loaded or not.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}
