package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"inputtune/internal/obs"
	"inputtune/internal/serve"
)

// Replica is one serving backend the router can route to. The two
// implementations are LocalReplica (an in-process serve.Service — the
// cluster-bench and test substrate, and what `inputtuned -fleet N` runs)
// and HTTPReplica (a remote inputtuned process reached over the binary
// wire).
type Replica interface {
	// Name identifies the replica; it is the consistent-hash ring member.
	Name() string
	// ClassifyFrame answers one ITW1 binary frame with a decision.
	// Transport-level failures come back as *DownError; malformed frames
	// as *serve.RequestError; a draining replica answers
	// serve.ErrDraining.
	ClassifyFrame(frame []byte) (*serve.Decision, error)
	// Health performs one health check (the ITH1 exchange for remote
	// replicas).
	Health() (serve.Health, error)
	// Reload loads a model artifact, returning the new generation.
	Reload(artifact []byte) (uint64, error)
	// Metrics returns the replica's serving metrics for fleet roll-up.
	Metrics() (serve.MetricsSnapshot, error)
	// Close releases the replica's resources.
	Close() error
}

// DownError marks a replica as unreachable (process died, connection
// refused, mid-stream cut). The router reacts by ejecting the replica
// and retrying elsewhere; every other error is answered or retried
// without ejection.
type DownError struct {
	Replica string
	Err     error
}

func (e *DownError) Error() string {
	return fmt.Sprintf("fleet: replica %s down: %v", e.Replica, e.Err)
}
func (e *DownError) Unwrap() error { return e.Err }

// IsDown reports whether err marks a replica as unreachable.
func IsDown(err error) bool {
	var d *DownError
	return errors.As(err, &d)
}

// LocalReplica adapts an in-process serve.Service to the Replica
// interface. SetDown simulates the process dying — every call fails
// with *DownError until the replica is revived — which is what the
// fault-injection tests and cluster-bench's mid-run kill use.
type LocalReplica struct {
	name string
	svc  *serve.Service
	down atomic.Bool
}

// NewLocalReplica wraps svc as a named replica.
func NewLocalReplica(name string, svc *serve.Service) *LocalReplica {
	return &LocalReplica{name: name, svc: svc}
}

// Service exposes the wrapped service (tests reach through to its cache
// stats and registry).
func (r *LocalReplica) Service() *serve.Service { return r.svc }

// SetDown simulates the replica process dying (true) or restarting
// (false).
func (r *LocalReplica) SetDown(down bool) { r.down.Store(down) }

// Down reports whether the replica is simulating death.
func (r *LocalReplica) Down() bool { return r.down.Load() }

func (r *LocalReplica) Name() string { return r.name }

func (r *LocalReplica) ClassifyFrame(frame []byte) (*serve.Decision, error) {
	if r.down.Load() {
		return nil, &DownError{Replica: r.name, Err: errors.New("connection refused (injected)")}
	}
	return r.svc.ClassifyBinary(bytes.NewReader(frame))
}

func (r *LocalReplica) Health() (serve.Health, error) {
	if r.down.Load() {
		return serve.Health{}, &DownError{Replica: r.name, Err: errors.New("connection refused (injected)")}
	}
	return r.svc.Health(), nil
}

func (r *LocalReplica) Reload(artifact []byte) (uint64, error) {
	if r.down.Load() {
		return 0, &DownError{Replica: r.name, Err: errors.New("connection refused (injected)")}
	}
	snap, err := r.svc.Load(artifact)
	if err != nil {
		return 0, err
	}
	return snap.Generation, nil
}

func (r *LocalReplica) Metrics() (serve.MetricsSnapshot, error) {
	if r.down.Load() {
		return serve.MetricsSnapshot{}, &DownError{Replica: r.name, Err: errors.New("connection refused (injected)")}
	}
	return r.svc.MetricsSnapshot(), nil
}

// Close is a no-op: an in-process service holds nothing to release.
func (r *LocalReplica) Close() error { return nil }

// HTTPReplica reaches a remote inputtuned process over its HTTP API,
// requests and decisions on the binary wire, health checks on ITH1.
type HTTPReplica struct {
	name    string
	baseURL string
	client  *http.Client
}

// NewHTTPReplica wraps the inputtuned instance at baseURL (e.g.
// "http://localhost:8077"). A nil client selects http.DefaultClient.
func NewHTTPReplica(name, baseURL string, client *http.Client) *HTTPReplica {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPReplica{name: name, baseURL: strings.TrimSuffix(baseURL, "/"), client: client}
}

func (r *HTTPReplica) Name() string { return r.name }

func (r *HTTPReplica) ClassifyFrame(frame []byte) (*serve.Decision, error) {
	req, err := http.NewRequest(http.MethodPost, r.baseURL+"/v1/classify", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", serve.ContentTypeBinary)
	req.Header.Set("Accept", serve.ContentTypeBinary)
	// A frame the router wrapped in an ITX1 trace context also announces
	// the trace ID in the header, so the replica joins the trace even on a
	// deployment that strips unknown frame extensions at a proxy.
	if id, _, ok, _ := serve.PeelTraceContext(frame); ok {
		req.Header.Set(obs.TraceHeader, obs.FormatID(id))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, &DownError{Replica: r.name, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := r.decodeError(resp)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &serve.RequestError{Err: err}
		}
		return nil, err
	}
	d, err := serve.DecodeBinaryDecision(resp.Body)
	if err != nil {
		// A cut mid-response is indistinguishable from the process dying.
		return nil, &DownError{Replica: r.name, Err: err}
	}
	return d, nil
}

// decodeError maps an HTTP error body back to an error value, recovering
// serve.ErrDraining so the router treats a draining replica as routing
// signal rather than a fault.
func (r *HTTPReplica) decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		if strings.Contains(e.Error, serve.ErrDraining.Error()) {
			return serve.ErrDraining
		}
		return errors.New(e.Error)
	}
	return fmt.Errorf("fleet: replica %s answered status %d", r.name, resp.StatusCode)
}

func (r *HTTPReplica) Health() (serve.Health, error) {
	req, err := http.NewRequest(http.MethodGet, r.baseURL+"/healthz", nil)
	if err != nil {
		return serve.Health{}, err
	}
	req.Header.Set("Accept", serve.ContentTypeBinary)
	resp, err := r.client.Do(req)
	if err != nil {
		return serve.Health{}, &DownError{Replica: r.name, Err: err}
	}
	defer resp.Body.Close()
	// A draining replica answers 503 with a valid frame; both statuses
	// carry the ITH1 body.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return serve.Health{}, &DownError{Replica: r.name,
			Err: fmt.Errorf("healthz status %d", resp.StatusCode)}
	}
	h, err := serve.DecodeHealthFrame(resp.Body)
	if err != nil {
		return serve.Health{}, &DownError{Replica: r.name, Err: err}
	}
	return h, nil
}

func (r *HTTPReplica) Reload(artifact []byte) (uint64, error) {
	resp, err := r.client.Post(r.baseURL+"/v1/reload", serve.ContentTypeJSON, bytes.NewReader(artifact))
	if err != nil {
		return 0, &DownError{Replica: r.name, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, r.decodeError(resp)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, &DownError{Replica: r.name, Err: err}
	}
	return out.Generation, nil
}

func (r *HTTPReplica) Metrics() (serve.MetricsSnapshot, error) {
	resp, err := r.client.Get(r.baseURL + "/metrics?format=json")
	if err != nil {
		return serve.MetricsSnapshot{}, &DownError{Replica: r.name, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.MetricsSnapshot{}, r.decodeError(resp)
	}
	var snap serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return serve.MetricsSnapshot{}, &DownError{Replica: r.name, Err: err}
	}
	return snap, nil
}

// Close is a no-op: the remote process has its own lifecycle.
func (r *HTTPReplica) Close() error { return nil }
