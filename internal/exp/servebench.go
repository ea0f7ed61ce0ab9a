package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/obs"
	"inputtune/internal/serve"
)

// ServeBenchOptions sizes the serving load benchmark.
type ServeBenchOptions struct {
	// Cases are the Table-1 case names to serve. The default — sort2,
	// clustering2, binpacking — covers the two largest-input workloads
	// (where wire-format cost shows) plus a variable-accuracy one.
	Cases []string
	// Wires are the wire formats to run, one load arm per format against
	// its own server instance (default: JSON then binary — the A/B).
	Wires []serve.Wire
	// Clients is the number of concurrent load-generator clients
	// (default 8).
	Clients int
	// Requests is the total request budget per case and wire, split over
	// the clients (default 2000).
	Requests int
	// Reloads is how many hot reloads are fired while traffic runs,
	// spaced evenly through the request budget; all must succeed with
	// zero failed requests. Zero means none (the no-reload baseline); the
	// CLI default is 2.
	Reloads int
	// DisableDecisionCache runs the server with the decision cache off —
	// the A/B arm; labels are identical either way.
	DisableDecisionCache bool
	// TraceArm adds one extra binary-wire arm with every request traced
	// (obs sample 1-in-1), so the trajectory records tracing's overhead
	// delta against the untraced binary arm directly.
	TraceArm bool
	// Scale sets the training budget for the served models.
	Scale Scale
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *ServeBenchOptions) setDefaults() {
	if len(o.Cases) == 0 {
		o.Cases = []string{"sort2", "clustering2", "binpacking"}
	}
	if len(o.Wires) == 0 {
		o.Wires = []serve.Wire{serve.WireJSON, serve.WireBinary}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Requests <= 0 {
		o.Requests = 2000
	}
	if o.Reloads < 0 {
		o.Reloads = 0
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// ServeCaseResult is one benchmark's serving performance under load over
// one wire format.
type ServeCaseResult struct {
	Case      string `json:"case"`
	Benchmark string `json:"benchmark"`
	// Wire is the format this arm ran ("json" or "binary") — the binary
	// arm sends binary request frames AND negotiates ITD1 binary
	// responses, so it measures the full binary round trip.
	Wire string `json:"wire"`
	// Traced marks the trace-overhead arm: same binary round trip, every
	// request traced end to end. TraceOverheadPct is its throughput loss
	// versus the untraced binary arm (negative = noise in its favor).
	Traced           bool    `json:"traced,omitempty"`
	TraceOverheadPct float64 `json:"trace_overhead_pct,omitempty"`
	// Requests actually issued; FailedRequests MUST be zero (non-200, a
	// transport error, or a label differing from the offline
	// classification all count as failures).
	Requests       int `json:"requests"`
	FailedRequests int `json:"failed_requests"`
	// Reloads fired mid-run; GenerationEnd is the registry generation
	// after the last one.
	Reloads       int    `json:"reloads"`
	GenerationEnd uint64 `json:"generation_end"`

	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Micros     float64 `json:"latency_p50_us"`
	P90Micros     float64 `json:"latency_p90_us"`
	P99Micros     float64 `json:"latency_p99_us"`
	MeanMicros    float64 `json:"latency_mean_us"`

	// AllocsPerRequest is the process-wide heap-allocation count per
	// request over the measured run (server plus loopback client; the
	// client-side bookkeeping is identical across wire arms, so the
	// JSON-vs-binary delta is the wire stack's own).
	AllocsPerRequest float64 `json:"allocs_per_request"`
	// RequestBytes is the median request-body size over the test inputs —
	// the wire-efficiency companion to AllocsPerRequest.
	RequestBytes int `json:"request_bytes"`

	CacheHits    uint64  `json:"decision_cache_hits"`
	CacheMisses  uint64  `json:"decision_cache_misses"`
	CacheHitRate float64 `json:"decision_cache_hit_rate"`
}

// ServeBenchReport is the "serve" section of the BENCH trajectory file.
type ServeBenchReport struct {
	Clients       int  `json:"clients"`
	Requests      int  `json:"requests_per_case"`
	DecisionCache bool `json:"decision_cache"`
	// SingleCore + Note: the shared GOMAXPROCS=1 caveat (see caveat.go) —
	// throughput here then measures one core serving and generating load.
	SingleCore bool              `json:"single_core,omitempty"`
	Note       string            `json:"note,omitempty"`
	Results    []ServeCaseResult `json:"results"`
}

// RunServeBench trains a model per case, serves it over a real loopback
// HTTP server through the full serve stack (codec decode, registry,
// decision cache, metrics), and drives it with concurrent clients while
// firing hot reloads — one arm per wire format, so the trajectory file
// carries the JSON-vs-binary A/B directly.
func RunServeBench(opts ServeBenchOptions) (ServeBenchReport, error) {
	opts.setDefaults()
	rep := ServeBenchReport{
		Clients:       opts.Clients,
		Requests:      opts.Requests,
		DecisionCache: !opts.DisableDecisionCache,
	}
	rep.SingleCore, rep.Note = singleCoreCaveat(
		"GOMAXPROCS=1: server and load generator share one core, so throughput measures the combined stack, not serving alone")
	for _, name := range opts.Cases {
		results, err := runServeCase(name, opts)
		if err != nil {
			return rep, fmt.Errorf("serve-bench %s: %w", name, err)
		}
		rep.Results = append(rep.Results, results...)
	}
	return rep, nil
}

// servedCase is the per-case state shared by every wire arm: the trained
// model artifact and the precomputed offline ground truth.
type servedCase struct {
	c        Case
	artifact []byte
	want     []int
}

// newServedCase trains one Table-1 case's model, serialises it to the
// artifact every replica loads, and precomputes the offline ground-truth
// labels every serving arm (serve-bench wires, cluster-bench fleets) is
// checked against.
func newServedCase(tag, name string, sc Scale, logf func(string, ...any)) (*servedCase, error) {
	c := BuildCase(name, sc)
	logf("[%s %s] training model (%d inputs, K1=%d)", tag, name, len(c.Train), sc.K1)
	model := core.TrainModel(c.Prog, c.Train, core.Options{
		K1: sc.K1, Seed: sc.Seed, TunerPopulation: sc.TunerPop,
		TunerGenerations: sc.TunerGens, H2: h2, Parallel: sc.Parallel,
		DisableCache: sc.DisableCache,
	})
	var artifact bytes.Buffer
	if err := core.SaveModel(model, &artifact); err != nil {
		return nil, err
	}
	set := c.Prog.Features()
	want := make([]int, len(c.Test))
	for i, in := range c.Test {
		want[i] = model.Production.ClassifyInput(set, in, nil)
	}
	return &servedCase{c: c, artifact: artifact.Bytes(), want: want}, nil
}

func runServeCase(name string, opts ServeBenchOptions) ([]ServeCaseResult, error) {
	logf := opts.Logf
	scase, err := newServedCase("serve-bench", name, opts.Scale, logf)
	if err != nil {
		return nil, err
	}

	var results []ServeCaseResult
	for _, wire := range opts.Wires {
		res, err := runServeArm(name, scase, wire, false, opts)
		if err != nil {
			return nil, fmt.Errorf("%s wire: %w", wire, err)
		}
		results = append(results, res)
	}
	if opts.TraceArm {
		res, err := runServeArm(name, scase, serve.WireBinary, true, opts)
		if err != nil {
			return nil, fmt.Errorf("traced binary wire: %w", err)
		}
		// The overhead headline compares like with like: the untraced
		// binary arm from this same run.
		for _, base := range results {
			if base.Wire == serve.WireBinary.String() && !base.Traced && base.ThroughputRPS > 0 {
				res.TraceOverheadPct = 100 * (base.ThroughputRPS - res.ThroughputRPS) / base.ThroughputRPS
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// encodeBodies renders every test input as one request body in the given
// wire format, plus the matching Content-Type.
func encodeBodies(sc *servedCase, wire serve.Wire) (bodies [][]byte, contentType string, err error) {
	codec, err := serve.LookupCodec(sc.c.Prog.Name())
	if err != nil {
		return nil, "", err
	}
	bodies = make([][]byte, len(sc.c.Test))
	for i, in := range sc.c.Test {
		var buf bytes.Buffer
		switch wire {
		case serve.WireJSON:
			raw, err := codec.EncodeJSON(in)
			if err != nil {
				return nil, "", err
			}
			bodies[i], err = json.Marshal(struct {
				Benchmark string          `json:"benchmark"`
				Input     json.RawMessage `json:"input"`
			}{sc.c.Prog.Name(), raw})
			if err != nil {
				return nil, "", err
			}
		case serve.WireBinary:
			if err := codec.Encode(serve.WireBinary, &buf, in); err != nil {
				return nil, "", err
			}
			bodies[i] = buf.Bytes()
		}
	}
	return bodies, wire.ContentType(), nil
}

// runServeArm serves one case over one wire format with a fresh service,
// so cache statistics, metrics and pool warmup never leak across arms.
// Every arm runs with a tracer installed — untraced arms at sample 0, so
// allocs_per_request measures the disabled-sampling fast path the
// zero-allocation guarantee covers, not a tracer-free build; the traced
// arm samples every request.
func runServeArm(name string, sc *servedCase, wire serve.Wire, traced bool, opts ServeBenchOptions) (ServeCaseResult, error) {
	logf := opts.Logf
	bodies, contentType, err := encodeBodies(sc, wire)
	if err != nil {
		return ServeCaseResult{}, err
	}

	reg := serve.NewRegistry()
	if err := reg.Register(sc.c.Prog); err != nil {
		return ServeCaseResult{}, err
	}
	sampleEvery := 0
	if traced {
		sampleEvery = 1
	}
	svc := serve.NewService(reg, serve.Options{
		Cache:  serve.CacheOptions{Disable: opts.DisableDecisionCache},
		Tracer: obs.New(obs.Options{SampleEvery: sampleEvery}),
	})
	if _, err := svc.Load(sc.artifact); err != nil {
		return ServeCaseResult{}, err
	}
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	client := srv.Client()
	client.Timeout = 60 * time.Second

	perClient := opts.Requests / opts.Clients
	if perClient < 1 {
		perClient = 1
	}
	total := perClient * opts.Clients
	armLabel := wire.String()
	if traced {
		armLabel += "+traced"
	}
	logf("[serve-bench %s/%s] %d clients x %d requests, %d hot reloads mid-run",
		name, armLabel, opts.Clients, perClient, opts.Reloads)

	latencies := make([][]time.Duration, opts.Clients)
	var failed atomic.Uint64
	var issued atomic.Uint64
	var completed atomic.Uint64 // every attempt, success or not
	var wg sync.WaitGroup
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for g := 0; g < opts.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, perClient)
			for r := 0; r < perClient; r++ {
				i := (g*perClient + r) % len(bodies)
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/classify", bytes.NewReader(bodies[i]))
				if err != nil {
					failed.Add(1)
					completed.Add(1)
					continue
				}
				req.Header.Set("Content-Type", contentType)
				if wire == serve.WireBinary {
					// The binary arm measures the full binary round trip:
					// negotiate the ITD1 response frame too.
					req.Header.Set("Accept", serve.ContentTypeBinary)
				}
				resp, err := client.Do(req)
				if err != nil {
					failed.Add(1)
					completed.Add(1)
					continue
				}
				var d serve.Decision
				if resp.Header.Get("Content-Type") == serve.ContentTypeBinary {
					var bd *serve.Decision
					if bd, err = serve.DecodeBinaryDecision(resp.Body); err == nil {
						d = *bd
					}
				} else {
					err = json.NewDecoder(resp.Body).Decode(&d)
				}
				resp.Body.Close()
				lat = append(lat, time.Since(t0))
				issued.Add(1)
				completed.Add(1)
				if err != nil || resp.StatusCode != http.StatusOK || d.Landmark != sc.want[i] {
					failed.Add(1)
				}
			}
			latencies[g] = lat
		}(g)
	}
	// Hot reloads spaced evenly through the request budget (reload r fires
	// once (r+1)/(Reloads+1) of the traffic has completed, so the swap
	// lands on warm-cache steady-state traffic, not the cold start). Each
	// must succeed, and — the acceptance criterion — cost zero failed
	// requests.
	reloadsDone := 0
	for r := 0; r < opts.Reloads; r++ {
		target := uint64((r + 1) * total / (opts.Reloads + 1))
		for completed.Load() < target {
			time.Sleep(500 * time.Microsecond)
		}
		resp, err := client.Post(srv.URL+"/v1/reload", "application/json", bytes.NewReader(sc.artifact))
		if err != nil {
			return ServeCaseResult{}, fmt.Errorf("hot reload %d: %w", r, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return ServeCaseResult{}, fmt.Errorf("hot reload %d: status %d", r, resp.StatusCode)
		}
		reloadsDone++
	}
	wg.Wait()
	wall := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e3
	}
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	mean := 0.0
	if len(all) > 0 {
		mean = float64(sum.Nanoseconds()) / 1e3 / float64(len(all))
	}
	cs := svc.CacheStats()
	snap, _ := reg.Get(sc.c.Prog.Name())
	res := ServeCaseResult{
		Case:             name,
		Benchmark:        sc.c.Prog.Name(),
		Wire:             wire.String(),
		Traced:           traced,
		Requests:         total,
		FailedRequests:   int(failed.Load()),
		Reloads:          reloadsDone,
		GenerationEnd:    snap.Generation,
		WallSeconds:      wall.Seconds(),
		ThroughputRPS:    float64(issued.Load()) / wall.Seconds(),
		P50Micros:        q(0.50),
		P90Micros:        q(0.90),
		P99Micros:        q(0.99),
		MeanMicros:       mean,
		AllocsPerRequest: float64(m1.Mallocs-m0.Mallocs) / float64(total),
		RequestBytes:     medianLen(bodies),
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		CacheHitRate:     cs.HitRate(),
	}
	logf("[serve-bench %s/%s] %.0f req/s, p50 %.0fµs p99 %.0fµs, %.0f allocs/req, %d failed, cache hit %.1f%%",
		name, armLabel, res.ThroughputRPS, res.P50Micros, res.P99Micros,
		res.AllocsPerRequest, res.FailedRequests, 100*res.CacheHitRate)
	return res, nil
}

// medianLen returns the median byte length across request bodies.
func medianLen(bodies [][]byte) int {
	if len(bodies) == 0 {
		return 0
	}
	lens := make([]int, len(bodies))
	for i, b := range bodies {
		lens[i] = len(b)
	}
	sort.Ints(lens)
	return lens[len(lens)/2]
}

// RenderServeBench formats the report as a human-readable table.
func RenderServeBench(r ServeBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve-bench: %d clients, %d requests/case/wire, decision cache %v\n",
		r.Clients, r.Requests, r.DecisionCache)
	fmt.Fprintf(&b, "%-12s %-9s %8s %10s %9s %9s %9s %10s %7s %8s %9s\n",
		"Case", "wire", "req", "thru(r/s)", "p50(µs)", "p90(µs)", "p99(µs)", "allocs/req", "failed", "reloads", "cacheHit%")
	fmt.Fprintln(&b, strings.Repeat("-", 110))
	for _, res := range r.Results {
		wireLabel := res.Wire
		if res.Traced {
			wireLabel += "+tr"
		}
		fmt.Fprintf(&b, "%-12s %-9s %8d %10.0f %9.0f %9.0f %9.0f %10.0f %7d %8d %8.1f%%\n",
			res.Case, wireLabel, res.Requests, res.ThroughputRPS, res.P50Micros, res.P90Micros,
			res.P99Micros, res.AllocsPerRequest, res.FailedRequests, res.Reloads, 100*res.CacheHitRate)
		if res.Traced && res.TraceOverheadPct != 0 {
			fmt.Fprintf(&b, "%-12s %-9s trace overhead vs untraced binary: %+.1f%%\n", "", "", res.TraceOverheadPct)
		}
	}
	return b.String()
}

// MergeServeIntoBench folds a serve-bench report into the BENCH
// trajectory file at path: if the file exists its training-side results
// are kept and only the "serve" section is replaced; otherwise a minimal
// report holding just the serve section is written.
func MergeServeIntoBench(path string, sb ServeBenchReport) error {
	var rep BenchReport
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("existing %s is not a bench report: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rep.Serve = &sb
	data, err := rep.BenchJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
