package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/fleet"
	"inputtune/internal/serve"
)

// ClusterBenchOptions sizes the multi-replica fleet benchmark.
type ClusterBenchOptions struct {
	// Case is the Table-1 case to serve (default sort2 — the largest
	// binary-wire win, so routing overhead is measured against the
	// cheapest per-request work).
	Case string
	// Replicas is the fleet-size grid; each entry is one arm against a
	// fresh fleet (default 1, 2, 4). The 1-replica arm is the scaling
	// baseline.
	Replicas []int
	// Clients is the number of concurrent load-generator clients
	// (default 8).
	Clients int
	// Requests is the total request budget per arm, split over the
	// clients (default 2000).
	Requests int
	// Kill injects a replica failure mid-run on every arm with more than
	// one replica: one replica goes down once ~35% of the traffic has
	// completed and comes back at ~70%. The acceptance criterion is zero
	// failed requests across the outage — the router must absorb the kill
	// with retries and ejection. Default true (disable with -kill=false).
	Kill bool
	// QuantizeBits is the router's feature-fingerprint quantization for
	// consistent-hash sharding (default 8). Replica decision caches stay
	// exact regardless — this knob only controls how aggressively nearby
	// inputs collapse onto the same replica.
	QuantizeBits int
	// Scale sets the training budget for the served model.
	Scale Scale
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *ClusterBenchOptions) setDefaults() {
	if o.Case == "" {
		o.Case = "sort2"
	}
	if len(o.Replicas) == 0 {
		o.Replicas = []int{1, 2, 4}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Requests <= 0 {
		o.Requests = 2000
	}
	if o.QuantizeBits <= 0 {
		o.QuantizeBits = 8
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// FleetReplicaStats is one replica's share of an arm, scraped from the
// fleet roll-up after the load completes.
type FleetReplicaStats struct {
	Name         string  `json:"name"`
	Requests     uint64  `json:"requests"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	P99Micros    float64 `json:"latency_p99_us"`
}

// FleetArmResult is one replica-count arm of the cluster benchmark.
type FleetArmResult struct {
	Replicas int `json:"replicas"`
	// Requests issued; FailedRequests (transport error, non-200, or an
	// undecodable body) and LabelMismatches (a decision differing from
	// the offline classifier) MUST both be zero, kill or no kill.
	Requests        int `json:"requests"`
	FailedRequests  int `json:"failed_requests"`
	LabelMismatches int `json:"label_mismatches"`
	// Kills is the number of injected replica failures (0 or 1); the
	// router-side counters record how the fleet absorbed them.
	Kills        int    `json:"kills"`
	Retries      uint64 `json:"retries"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`

	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// SpeedupOverSingle is this arm's throughput over the 1-replica
	// arm's (1.0 for the baseline itself; 0 when no baseline arm ran).
	SpeedupOverSingle float64 `json:"speedup_over_single_x"`
	P50Micros         float64 `json:"latency_p50_us"`
	P99Micros         float64 `json:"latency_p99_us"`

	// FleetCacheHitRate is the request-weighted decision-cache hit rate
	// across replicas — sticky sharding keeps it high even as the fleet
	// grows, because each quantized fingerprint always lands on the same
	// replica's cache.
	FleetCacheHitRate float64             `json:"fleet_cache_hit_rate"`
	PerReplica        []FleetReplicaStats `json:"per_replica"`
}

// FleetBenchReport is the "fleet" section of the BENCH trajectory file.
type FleetBenchReport struct {
	Case         string `json:"case"`
	Benchmark    string `json:"benchmark"`
	Clients      int    `json:"clients"`
	Requests     int    `json:"requests_per_arm"`
	QuantizeBits int    `json:"shard_quantize_bits"`
	KillInjected bool   `json:"kill_injected"`
	// SingleCore flags runs where GOMAXPROCS==1: replicas then share one
	// core, so SpeedupOverSingle measures routing overhead rather than
	// parallel scaling, and values near (or below) 1.0 are expected. The
	// correctness criteria — zero failed requests, zero label mismatches
	// through an injected kill — are unaffected.
	SingleCore bool `json:"single_core"`
	// Note makes the single-core caveat self-describing inside the JSON:
	// a reader of the trajectory file sees why speedup_over_single_x
	// hovers near 1.0 without having to find this comment.
	Note string           `json:"note,omitempty"`
	Arms []FleetArmResult `json:"arms"`
}

// RunClusterBench trains one model, then for each fleet size stands up
// that many in-process replicas behind a consistent-hash router fronted
// by a real loopback HTTP server, and drives the fleet with concurrent
// binary-wire clients — killing and restarting a replica mid-run when
// Kill is set. Every decision is checked against the offline classifier.
func RunClusterBench(opts ClusterBenchOptions) (FleetBenchReport, error) {
	opts.setDefaults()
	scase, err := newServedCase("cluster-bench", opts.Case, opts.Scale, opts.Logf)
	if err != nil {
		return FleetBenchReport{}, err
	}
	rep := FleetBenchReport{
		Case:         opts.Case,
		Benchmark:    scase.c.Prog.Name(),
		Clients:      opts.Clients,
		Requests:     opts.Requests,
		QuantizeBits: opts.QuantizeBits,
		KillInjected: opts.Kill,
	}
	rep.SingleCore, rep.Note = singleCoreCaveat(
		"GOMAXPROCS=1: replicas share one core, so speedup_over_single_x measures routing overhead, not parallel scaling")
	for _, n := range opts.Replicas {
		if n < 1 {
			return rep, fmt.Errorf("cluster-bench: replica count %d out of range", n)
		}
		arm, err := runClusterArm(scase, n, opts)
		if err != nil {
			return rep, fmt.Errorf("cluster-bench %d replicas: %w", n, err)
		}
		rep.Arms = append(rep.Arms, arm)
	}
	// Scaling is relative to the 1-replica arm when one ran.
	var base float64
	for _, arm := range rep.Arms {
		if arm.Replicas == 1 {
			base = arm.ThroughputRPS
		}
	}
	if base > 0 {
		for i := range rep.Arms {
			rep.Arms[i].SpeedupOverSingle = rep.Arms[i].ThroughputRPS / base
		}
	}
	return rep, nil
}

// Failed reports whether any arm violated the zero-failure acceptance
// criteria (failed requests or label mismatches).
func (r FleetBenchReport) Failed() bool {
	for _, arm := range r.Arms {
		if arm.FailedRequests > 0 || arm.LabelMismatches > 0 {
			return true
		}
	}
	return false
}

func runClusterArm(scase *servedCase, n int, opts ClusterBenchOptions) (FleetArmResult, error) {
	logf := opts.Logf
	bodies, contentType, err := encodeBodies(scase, serve.WireBinary)
	if err != nil {
		return FleetArmResult{}, err
	}

	// Each replica is a full serving stack with its own registry, decision
	// cache and metrics — exactly what a separate process would run; only
	// the transport hop is elided.
	replicas := make([]*fleet.LocalReplica, n)
	rs := make([]fleet.Replica, n)
	for i := range replicas {
		reg := serve.NewRegistry()
		if err := reg.Register(scase.c.Prog); err != nil {
			return FleetArmResult{}, err
		}
		if _, err := reg.Load(scase.artifact); err != nil {
			return FleetArmResult{}, err
		}
		svc := serve.NewService(reg, serve.Options{})
		replicas[i] = fleet.NewLocalReplica(fmt.Sprintf("replica-%d", i), svc)
		rs[i] = replicas[i]
	}
	rt := fleet.NewRouter(rs, fleet.Options{
		QuantizeBits:   opts.QuantizeBits,
		HealthInterval: 2 * time.Millisecond,
	})
	defer rt.Close(context.Background())
	srv := httptest.NewServer(fleet.NewHandler(rt))
	defer srv.Close()
	client := srv.Client()
	client.Timeout = 60 * time.Second

	perClient := opts.Requests / opts.Clients
	if perClient < 1 {
		perClient = 1
	}
	total := perClient * opts.Clients
	kill := opts.Kill && n > 1
	logf("[cluster-bench %dx] %d clients x %d requests, kill mid-run: %v",
		n, opts.Clients, perClient, kill)

	latencies := make([][]time.Duration, opts.Clients)
	var failed, mismatched atomic.Uint64
	var completed atomic.Uint64
	var wg sync.WaitGroup
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
				req.Header.Set("Accept", serve.ContentTypeBinary)
				resp, err := client.Do(req)
				if err != nil {
					failed.Add(1)
					completed.Add(1)
					continue
				}
				d, err := serve.DecodeBinaryDecision(resp.Body)
				resp.Body.Close()
				lat = append(lat, time.Since(t0))
				completed.Add(1)
				switch {
				case err != nil || resp.StatusCode != http.StatusOK:
					failed.Add(1)
				case d.Landmark != scase.want[i]:
					mismatched.Add(1)
				}
			}
			latencies[g] = lat
		}(g)
	}
	// The injected fault: one replica refuses all connections once ~35% of
	// the traffic has completed and recovers at ~70% — long enough for the
	// health loop to eject it and readmit it with load still running.
	kills := 0
	if kill {
		victim := replicas[n-1]
		for completed.Load() < uint64(35*total/100) {
			time.Sleep(200 * time.Microsecond)
		}
		victim.SetDown(true)
		kills++
		logf("[cluster-bench %dx] killed %s at %d/%d requests", n, victim.Name(), completed.Load(), total)
		for completed.Load() < uint64(70*total/100) {
			time.Sleep(200 * time.Microsecond)
		}
		victim.SetDown(false)
		logf("[cluster-bench %dx] restarted %s at %d/%d requests", n, victim.Name(), completed.Load(), total)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(p*float64(len(all)-1))].Nanoseconds()) / 1e3
	}

	snap := rt.Snapshot()
	arm := FleetArmResult{
		Replicas:          n,
		Requests:          total,
		FailedRequests:    int(failed.Load()),
		LabelMismatches:   int(mismatched.Load()),
		Kills:             kills,
		Retries:           snap.Router.Retries,
		Ejections:         snap.Router.Ejections,
		Readmissions:      snap.Router.Readmissions,
		WallSeconds:       wall.Seconds(),
		ThroughputRPS:     float64(total) / wall.Seconds(),
		P50Micros:         q(0.50),
		P99Micros:         q(0.99),
		FleetCacheHitRate: snap.FleetHitRate,
	}
	for _, r := range snap.Replicas {
		arm.PerReplica = append(arm.PerReplica, FleetReplicaStats{
			Name:         r.Name,
			Requests:     r.Metrics.Requests,
			CacheHitRate: r.Metrics.DecisionCache.HitRate(),
			P99Micros:    r.Metrics.P99Micros,
		})
	}
	logf("[cluster-bench %dx] %.0f req/s, p50 %.0fµs p99 %.0fµs, %d failed, %d mismatched, %d retries, %d ejections, cache hit %.1f%%",
		n, arm.ThroughputRPS, arm.P50Micros, arm.P99Micros, arm.FailedRequests,
		arm.LabelMismatches, arm.Retries, arm.Ejections, 100*arm.FleetCacheHitRate)
	return arm, nil
}

// RenderClusterBench formats the report as a human-readable table.
func RenderClusterBench(r FleetBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster-bench: case %s, %d clients, %d requests/arm, shard quantize %d bits, kill %v\n",
		r.Case, r.Clients, r.Requests, r.QuantizeBits, r.KillInjected)
	if r.SingleCore {
		fmt.Fprintln(&b, "NOTE: GOMAXPROCS=1 — replicas share one core, so speedup measures routing overhead, not parallel scaling")
	}
	fmt.Fprintf(&b, "%-8s %8s %10s %9s %9s %9s %7s %9s %8s %9s %6s %9s\n",
		"replicas", "req", "thru(r/s)", "speedup", "p50(µs)", "p99(µs)", "failed", "mismatch", "kills", "ejections", "retry", "cacheHit%")
	fmt.Fprintln(&b, strings.Repeat("-", 114))
	for _, arm := range r.Arms {
		fmt.Fprintf(&b, "%-8d %8d %10.0f %8.2fx %9.0f %9.0f %7d %9d %8d %9d %6d %8.1f%%\n",
			arm.Replicas, arm.Requests, arm.ThroughputRPS, arm.SpeedupOverSingle,
			arm.P50Micros, arm.P99Micros, arm.FailedRequests, arm.LabelMismatches,
			arm.Kills, arm.Ejections, arm.Retries, 100*arm.FleetCacheHitRate)
	}
	return b.String()
}

// MergeFleetIntoBench folds a cluster-bench report into the BENCH
// trajectory file at path, replacing only the "fleet" section (the
// training and serve sections are kept when the file exists).
func MergeFleetIntoBench(path string, fb FleetBenchReport) error {
	var rep BenchReport
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("existing %s is not a bench report: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rep.Fleet = &fb
	data, err := rep.BenchJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
