// Package serve is the deployment runtime: it turns trained models (the
// SaveModel artifacts the training pipeline emits) into a concurrent
// classification service with hot reload, a bounded decision cache and a
// metrics surface.
//
// The layering, bottom to top:
//
//   - Registry — named benchmarks, each holding its current model behind
//     an atomic.Pointer. Load validates a new artifact against the
//     benchmark's Program and swaps it in atomically: in-flight requests
//     keep the snapshot they started with, new requests see the new one,
//     and a bad artifact is rejected without disturbing the live model.
//   - DecisionCache — a bounded LRU from fingerprinted feature vectors
//     (exact Float64bits by default; CacheOptions.QuantizeBits opts into
//     bucketed keys) to predicted landmarks. Feature extraction is
//     deterministic, so with exact keys a hit returns exactly the label a
//     fresh prediction would; the cache can only skip work, never change
//     an answer.
//   - Service — the per-request path: resolve the model snapshot, extract
//     features on a private cost.Meter (requests never share mutable
//     state; see core.Model.Infer for the contract), consult the decision
//     cache, predict, and record metrics, all on the caller's goroutine.
//   - Handler — the stdlib net/http API served by cmd/inputtuned:
//     POST /v1/classify (content-negotiated between the JSON envelope and
//     the binary frame), POST /v1/reload, GET /v1/models, GET /metrics,
//     GET /healthz.
//
// Wire inputs are decoded per benchmark by the schema-driven codecs in
// codec.go over the wire layer in wire.go: one schema per benchmark, two
// negotiated formats (JSON, kept bit-compatible with PR 4, and the
// length-prefixed binary frame, whose vectors are read byte for byte into
// pooled float64 buffers — see docs/ARCHITECTURE.md § Wire protocol). The
// cluster and drift benches (internal/exp) encode their inputs with the
// same codecs, so they drive the real binary wire path;
// BenchmarkHTTPClassify times both formats through the handler.
package serve
