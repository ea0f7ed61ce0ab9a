package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/drift"
	"inputtune/internal/serve"
)

// DriftBenchOptions sizes the online drift → retrain → hot-reload
// benchmark.
type DriftBenchOptions struct {
	// Clients is the number of concurrent load-generator clients
	// (default 4 — the drift loop shares the machine with a background
	// retrain, so the load arm stays modest).
	Clients int
	// PreRequests is the pre-shift tranche: in-distribution traffic that
	// must leave the detector quiet (default 512).
	PreRequests int
	// ShiftRequests is the shifted-traffic budget driven while the
	// detector fires and the background retrain runs (default 2048). If
	// the retrain has not published when the budget is spent, extra
	// tranches keep traffic flowing until it does (bounded).
	ShiftRequests int
	// PostRequests is the post-reload tranche: fresh shifted-distribution
	// traffic served entirely by the retrained generation (default 512).
	PostRequests int
	// Window overrides the detector window (0 = the detector's calibrated
	// default). Smaller windows fire sooner and are noisier — the smoke
	// configuration uses 128.
	Window int
	// Capacity bounds the retention reservoir (default 64).
	Capacity int
	// MinRetain is the smallest retained set a retrain may start from
	// (default 24).
	MinRetain int
	// RetrainBudget caps tuner evaluations per landmark during the
	// drift-triggered retrain (0 = the meta-tuner's self-tuned default).
	// The initial offline model always trains at the full budget; only
	// the background retrain is capped, mirroring production where
	// retraining shares cores with serving.
	RetrainBudget int
	// Scale sets the training budget, for the initial model and for the
	// drift-triggered retrain alike.
	Scale Scale
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *DriftBenchOptions) setDefaults() {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.PreRequests <= 0 {
		o.PreRequests = 512
	}
	if o.ShiftRequests <= 0 {
		o.ShiftRequests = 2048
	}
	if o.PostRequests <= 0 {
		o.PostRequests = 512
	}
	if o.Capacity <= 0 {
		o.Capacity = 64
	}
	if o.MinRetain <= 0 {
		o.MinRetain = 24
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// DriftPhaseResult is one phase of the drift benchmark: before the
// distribution shift, during it (served by the pre-shift model while the
// detector fires and the retrain runs), and after the retrained model
// hot-reloaded.
type DriftPhaseResult struct {
	// Phase is "pre_shift", "shifted" or "post_retrain".
	Phase string `json:"phase"`
	// Requests issued; FailedRequests (transport error, non-200 or an
	// undecodable frame) and LabelMismatches (a label differing from the
	// offline classification by the exact generation that served it) MUST
	// both be zero — requests keep succeeding while the model is swapped
	// underneath them.
	Requests        int `json:"requests"`
	FailedRequests  int `json:"failed_requests"`
	LabelMismatches int `json:"label_mismatches"`
	// GenerationsServed lists the model generations that served this
	// phase's traffic, ascending.
	GenerationsServed []uint64 `json:"generations_served"`
	// MeanSlowdown is the phase's decision quality: mean over served
	// requests of (virtual cost of the served configuration) / (virtual
	// cost of the best configuration for that input within the serving
	// generation's own landmark set — the dynamic oracle the paper's
	// two-level classifier is scored against). 1.0 means every request
	// got the best decision its model could have made. The number is
	// comparable within a distribution: shifted and post_retrain serve
	// the same shifted traffic, so post dropping below shifted is the
	// retrain paying off; pre_shift is scored on the old distribution
	// and anchors the recovery bound.
	MeanSlowdown float64 `json:"mean_slowdown_vs_oracle"`
	P50Micros    float64 `json:"latency_p50_us"`
	P99Micros    float64 `json:"latency_p99_us"`
}

// DriftBenchReport is the "drift" section of the BENCH trajectory file.
type DriftBenchReport struct {
	Benchmark string `json:"benchmark"`
	Clients   int    `json:"clients"`
	// Window is the detector window actually used (after defaulting).
	Window            int `json:"window"`
	ReservoirCapacity int `json:"reservoir_capacity"`
	MinRetain         int `json:"min_retain"`
	// RetrainBudget is the per-landmark tuner-evaluation cap the
	// drift-triggered retrain ran under (0 = self-tuned default).
	RetrainBudget int `json:"retrain_budget"`
	// DetectorFired must be true: the injected shift is far outside the
	// detector's calibrated noise band.
	DetectorFired bool `json:"detector_fired"`
	// FiredAfterRequests is the shifted-request count completed when the
	// drifted status was first observed.
	FiredAfterRequests int `json:"fired_after_requests"`
	// Retrains is the number of retrains the controller published during
	// the run (at least 1; the retrained model may itself retrain once if
	// its reservoir-biased summary still mismatches live traffic).
	Retrains uint64 `json:"retrains"`
	// RetrainSeconds is the wall time from the first drifted status to
	// the first published retrain — the exposure window during which the
	// stale model keeps serving.
	RetrainSeconds float64 `json:"retrain_seconds"`
	GenerationEnd  uint64  `json:"generation_end"`
	// QualityRecovered reports the headline acceptance: the post-retrain
	// phase's mean slowdown is back within 15% of the pre-shift
	// baseline's (and no longer worse than the shifted phase's).
	QualityRecovered bool `json:"quality_recovered"`
	// SingleCore flags runs where GOMAXPROCS==1: the background retrain
	// then competes with serving for the one core, so shifted-phase
	// latency includes retrain CPU contention. Note spells that out in
	// the JSON itself.
	SingleCore bool               `json:"single_core"`
	Note       string             `json:"note,omitempty"`
	Phases     []DriftPhaseResult `json:"phases"`
}

// Failed reports whether any phase violated the zero-failure acceptance
// criteria.
func (r DriftBenchReport) Failed() bool {
	for _, p := range r.Phases {
		if p.FailedRequests > 0 || p.LabelMismatches > 0 {
			return true
		}
	}
	return false
}

// driftPhaseRecord is one served request's outcome, kept for the offline
// quality evaluation after the run.
type driftPhaseRecord struct {
	idx   int // index into the phase's input slice
	gen   uint64
	label int
	lat   time.Duration
}

// RunDriftBench closes the full loop end to end over a real loopback HTTP
// server: train on distribution A, serve A-traffic (detector quiet), shift
// the live traffic to distribution B (detector fires, the controller
// retrains from its retained reservoir in the background and hot-publishes
// through the registry), then serve fresh B-traffic on the retrained
// model. Every response is checked against the offline classification of
// the generation that served it, and each phase's decision quality is
// scored against the serving generation's own per-input dynamic oracle.
func RunDriftBench(opts DriftBenchOptions) (DriftBenchReport, error) {
	opts.setDefaults()
	sc := opts.Scale
	logf := opts.Logf

	// Distribution A is the synthetic generator battery at small sizes;
	// distribution B is the registry-like workload (heavy duplication,
	// block structure) at 2-4x the size — the same calibrated pair the
	// drift detector's table tests pin.
	trainIn := driftSortInputs(sortbench.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed, MaxSize: 512})
	logf("[drift-bench] training pre-shift model (%d inputs, K1=%d)", len(trainIn), sc.K1)
	trainOpts := core.Options{
		K1: sc.K1, Seed: sc.Seed, TunerPopulation: sc.TunerPop,
		TunerGenerations: sc.TunerGens, H2: h2, Parallel: sc.Parallel,
		DisableCache: sc.DisableCache,
	}
	model := core.TrainModel(sortbench.New(), trainIn, trainOpts)
	if model.Production.Kind != core.SubsetTree || len(model.Production.Static) == 0 {
		return DriftBenchReport{}, fmt.Errorf("drift-bench: production classifier %q has no static feature subset; the sampling tap has nothing to observe", model.Production.Name)
	}
	var artifact bytes.Buffer
	if err := core.SaveModel(model, &artifact); err != nil {
		return DriftBenchReport{}, err
	}

	reg := serve.NewRegistry()
	if err := reg.Register(sortbench.New()); err != nil {
		return DriftBenchReport{}, err
	}
	if _, err := reg.Load(artifact.Bytes()); err != nil {
		return DriftBenchReport{}, err
	}
	svc := serve.NewService(reg, serve.Options{})

	// Capture every published generation's artifact for the offline label
	// and quality checks; publishes go through the service hot-reload path.
	var artMu sync.Mutex
	artifacts := map[uint64][]byte{1: artifact.Bytes()}
	var firstPublish atomic.Int64 // unix nanos of the first successful publish
	ctrl := drift.NewController(drift.Options{
		Registry:      reg,
		Train:         trainOpts,
		Detector:      drift.DetectorOptions{Window: opts.Window},
		Capacity:      opts.Capacity,
		MinRetain:     opts.MinRetain,
		RetrainBudget: opts.RetrainBudget,
		Seed:          sc.Seed,
		Logger:        slogFromLogf(logf),
		Publish: func(_ string, art []byte) error {
			snap, err := svc.Load(art)
			if err != nil {
				return err
			}
			artMu.Lock()
			artifacts[snap.Generation] = append([]byte(nil), art...)
			artMu.Unlock()
			firstPublish.CompareAndSwap(0, time.Now().UnixNano())
			return nil
		},
	})
	ctrl.Bind(svc)

	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	client := srv.Client()
	client.Timeout = 60 * time.Second

	window := drift.DetectorOptions{Window: opts.Window}
	windowUsed := window.Window
	if windowUsed <= 0 {
		windowUsed = 256
	}
	rep := DriftBenchReport{
		Benchmark:         "sort",
		Clients:           opts.Clients,
		Window:            windowUsed,
		ReservoirCapacity: opts.Capacity,
		MinRetain:         opts.MinRetain,
		RetrainBudget:     opts.RetrainBudget,
	}
	rep.SingleCore, rep.Note = singleCoreCaveat(
		"GOMAXPROCS=1: the background retrain shares the core with serving, so shifted-phase latency includes retrain CPU contention")

	// Phase 1 — pre-shift: in-distribution traffic, fresh seed. The
	// detector must stay quiet.
	preIn := driftSortInputs(sortbench.MixOptions{Count: opts.PreRequests, Seed: sc.Seed + 20011, MaxSize: 512})
	logf("[drift-bench] pre-shift phase: %d in-distribution requests", len(preIn))
	preRecs, preFailed, err := driveDriftPhase(srv.URL, client, preIn, opts.Clients, nil)
	if err != nil {
		return rep, fmt.Errorf("pre-shift phase: %w", err)
	}
	if st := ctrl.Status()["sort"]; st.Drifted {
		return rep, fmt.Errorf("drift-bench: detector fired on in-distribution traffic (effect %.3f, tv %.3f) — calibration broken", st.EffectSize, st.AssignTV)
	}

	// Phase 2 — the shift: live traffic jumps to distribution B. A
	// monitor polls the drift status so the report can say how many
	// requests the detector needed and how long the stale model kept
	// serving before the retrain published.
	shiftIn := driftSortInputs(sortbench.MixOptions{Count: opts.ShiftRequests, Seed: sc.Seed + 30013, RealLike: true, MinSize: 1024, MaxSize: 2048})
	logf("[drift-bench] shift phase: %d shifted requests", len(shiftIn))
	var completed atomic.Uint64
	var firedAt atomic.Int64    // unix nanos when drifted status first seen
	var firedAfter atomic.Int64 // completed-request count at that moment
	stopMonitor := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			st := ctrl.Status()["sort"]
			if st.Drifted {
				firedAt.CompareAndSwap(0, time.Now().UnixNano())
				firedAfter.CompareAndSwap(0, int64(completed.Load()))
				return
			}
			select {
			case <-time.After(500 * time.Microsecond):
			case <-stopMonitor:
				return
			}
		}
	}()
	shiftRecs, shiftFailed, err := driveDriftPhase(srv.URL, client, shiftIn, opts.Clients, &completed)
	if err != nil {
		return rep, fmt.Errorf("shift phase: %w", err)
	}
	// Keep traffic flowing in bounded extra tranches until the retrain
	// publishes: the loop closes on live traffic, not on an idle server.
	for extra := 0; ctrl.Retrains("sort") == 0 && extra < 20; extra++ {
		tranche := shiftIn
		if len(tranche) > 256 {
			tranche = tranche[:256]
		}
		recs, failed, err := driveDriftPhase(srv.URL, client, tranche, opts.Clients, &completed)
		if err != nil {
			return rep, fmt.Errorf("shift phase (extra tranche %d): %w", extra, err)
		}
		shiftRecs = append(shiftRecs, recs...)
		shiftFailed += failed
		ctrlStatus := ctrl.Status()["sort"]
		if !ctrlStatus.Drifted && !ctrlStatus.Retraining {
			continue
		}
		ctrl.Wait() // a retrain is in flight; let it publish before re-checking
	}
	ctrl.Wait()
	close(stopMonitor)
	<-monitorDone
	rep.DetectorFired = firedAt.Load() != 0
	rep.FiredAfterRequests = int(firedAfter.Load())
	rep.Retrains = ctrl.Retrains("sort")
	if rep.DetectorFired && firstPublish.Load() != 0 {
		rep.RetrainSeconds = float64(firstPublish.Load()-firedAt.Load()) / 1e9
	}
	if !rep.DetectorFired || rep.Retrains == 0 {
		rep.Phases = summarizeDriftPhases(nil, preIn, preRecs, preFailed, shiftIn, shiftRecs, shiftFailed, nil, nil, 0)
		return rep, fmt.Errorf("drift-bench: detector fired=%v, retrains=%d after %d shifted requests — the loop never closed",
			rep.DetectorFired, rep.Retrains, len(shiftRecs))
	}
	logf("[drift-bench] detector fired after %d shifted requests; retrain published %.2fs later (%d retrains)",
		rep.FiredAfterRequests, rep.RetrainSeconds, rep.Retrains)

	// Phase 3 — post-retrain: fresh shifted-distribution traffic served by
	// the retrained generation.
	postIn := driftSortInputs(sortbench.MixOptions{Count: opts.PostRequests, Seed: sc.Seed + 40031, RealLike: true, MinSize: 1024, MaxSize: 2048})
	logf("[drift-bench] post-retrain phase: %d shifted requests on the new model", len(postIn))
	postRecs, postFailed, err := driveDriftPhase(srv.URL, client, postIn, opts.Clients, nil)
	if err != nil {
		return rep, fmt.Errorf("post-retrain phase: %w", err)
	}
	snap, _ := reg.Get("sort")
	rep.GenerationEnd = snap.Generation

	// Offline evaluation: reload every generation's artifact, check each
	// response's label against the generation that served it, and score
	// decision quality against each generation's dynamic oracle.
	artMu.Lock()
	models := make(map[uint64]*core.Model, len(artifacts))
	for gen, art := range artifacts {
		m, lerr := core.LoadModel(sortbench.New(), bytes.NewReader(art))
		if lerr != nil {
			artMu.Unlock()
			return rep, fmt.Errorf("reloading generation %d artifact: %w", gen, lerr)
		}
		models[gen] = m
	}
	artMu.Unlock()
	logf("[drift-bench] scoring %d+%d+%d responses across %d generations",
		len(preRecs), len(shiftRecs), len(postRecs), len(models))
	rep.Phases = summarizeDriftPhases(models, preIn, preRecs, preFailed, shiftIn, shiftRecs, shiftFailed, postIn, postRecs, postFailed)
	scoreDriftPhases(rep.Phases, models, [][]core.Input{preIn, shiftIn, postIn}, [][]driftPhaseRecord{preRecs, shiftRecs, postRecs})

	pre, shifted, post := rep.Phases[0], rep.Phases[1], rep.Phases[2]
	rep.QualityRecovered = post.MeanSlowdown <= pre.MeanSlowdown*1.15 && post.MeanSlowdown <= shifted.MeanSlowdown
	logf("[drift-bench] slowdown vs oracle: pre %.3f, shifted %.3f, post %.3f (recovered=%v)",
		pre.MeanSlowdown, shifted.MeanSlowdown, post.MeanSlowdown, rep.QualityRecovered)
	return rep, nil
}

func driftSortInputs(o sortbench.MixOptions) []core.Input {
	lists := sortbench.GenerateMix(o)
	out := make([]core.Input, len(lists))
	for i, l := range lists {
		out[i] = l
	}
	return out
}

// driveDriftPhase pushes every input through /v1/classify once over the
// binary wire with the given client concurrency, recording the serving
// generation, label and latency per response. completed, when non-nil, is
// bumped per finished request for the shift-phase monitor.
func driveDriftPhase(url string, client *http.Client, inputs []core.Input, clients int, completed *atomic.Uint64) ([]driftPhaseRecord, int, error) {
	bodies := make([][]byte, len(inputs))
	for i, in := range inputs {
		var buf bytes.Buffer
		if err := serve.EncodeBinaryRequest(&buf, "sort", in); err != nil {
			return nil, 0, err
		}
		bodies[i] = buf.Bytes()
	}
	perClient := len(bodies) / clients
	if perClient < 1 {
		perClient = 1
		clients = len(bodies)
	}
	recs := make([][]driftPhaseRecord, clients)
	var failed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo, hi := g*perClient, (g+1)*perClient
			if g == clients-1 {
				hi = len(bodies)
			}
			out := make([]driftPhaseRecord, 0, hi-lo)
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, url+"/v1/classify", bytes.NewReader(bodies[i]))
				if err != nil {
					failed.Add(1)
					bump(completed)
					continue
				}
				req.Header.Set("Content-Type", serve.ContentTypeBinary)
				req.Header.Set("Accept", serve.ContentTypeBinary)
				resp, err := client.Do(req)
				if err != nil {
					failed.Add(1)
					bump(completed)
					continue
				}
				d, err := serve.DecodeBinaryDecision(resp.Body)
				resp.Body.Close()
				bump(completed)
				if err != nil || resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				out = append(out, driftPhaseRecord{idx: i, gen: d.Generation, label: d.Landmark, lat: time.Since(t0)})
			}
			recs[g] = out
		}(g)
	}
	wg.Wait()
	var all []driftPhaseRecord
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, int(failed.Load()), nil
}

func bump(c *atomic.Uint64) {
	if c != nil {
		c.Add(1)
	}
}

// summarizeDriftPhases builds the three phase rows (latency quantiles,
// failure counts, generations served); quality is filled in by
// scoreDriftPhases. A nil models map (the never-fired error path) skips
// the label check.
func summarizeDriftPhases(models map[uint64]*core.Model,
	preIn []core.Input, preRecs []driftPhaseRecord, preFailed int,
	shiftIn []core.Input, shiftRecs []driftPhaseRecord, shiftFailed int,
	postIn []core.Input, postRecs []driftPhaseRecord, postFailed int) []DriftPhaseResult {
	phase := func(name string, inputs []core.Input, recs []driftPhaseRecord, failed int) DriftPhaseResult {
		p := DriftPhaseResult{Phase: name, Requests: len(recs) + failed, FailedRequests: failed}
		seenGen := map[uint64]bool{}
		lats := make([]time.Duration, 0, len(recs))
		for _, r := range recs {
			seenGen[r.gen] = true
			lats = append(lats, r.lat)
		}
		for gen := range seenGen {
			p.GenerationsServed = append(p.GenerationsServed, gen)
		}
		sort.Slice(p.GenerationsServed, func(i, j int) bool { return p.GenerationsServed[i] < p.GenerationsServed[j] })
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if len(lats) > 0 {
			p.P50Micros = float64(lats[len(lats)/2].Nanoseconds()) / 1e3
			p.P99Micros = float64(lats[int(0.99*float64(len(lats)-1))].Nanoseconds()) / 1e3
		}
		if models != nil {
			// Label check: each response against the offline classification
			// of the exact generation that served it.
			type lk struct {
				gen uint64
				idx int
			}
			checked := map[lk]int{}
			for _, r := range recs {
				k := lk{r.gen, r.idx}
				if want, ok := checked[k]; ok {
					if want != r.label {
						p.LabelMismatches++
					}
					continue
				}
				m := models[r.gen]
				if m == nil {
					p.LabelMismatches++
					continue
				}
				want := m.Production.ClassifyInput(m.Program.Features(), inputs[r.idx], nil)
				checked[k] = want
				if r.label != want {
					p.LabelMismatches++
				}
			}
		}
		return p
	}
	out := []DriftPhaseResult{
		phase("pre_shift", preIn, preRecs, preFailed),
		phase("shifted", shiftIn, shiftRecs, shiftFailed),
	}
	if postIn != nil || postRecs != nil {
		out = append(out, phase("post_retrain", postIn, postRecs, postFailed))
	}
	return out
}

// scoreDriftPhases fills each phase's MeanSlowdown: served virtual cost
// over the per-input dynamic-oracle cost — the best configuration in the
// serving generation's own landmark set, so the score isolates how well
// the classifier picked among the choices it had (the quantity drift
// corrupts and a retrain repairs). Costs are deterministic (cost.Meter
// virtual time), so the same decisions always score the same.
func scoreDriftPhases(phases []DriftPhaseResult, models map[uint64]*core.Model, inputs [][]core.Input, recs [][]driftPhaseRecord) {
	prog := sortbench.New()
	for pi := range phases {
		oracle := map[[2]uint64]float64{} // (gen, idx) -> best landmark cost for that generation
		served := map[[2]uint64]float64{} // (gen, idx) -> served cost
		var sum float64
		var n int
		for _, r := range recs[pi] {
			in := inputs[pi][r.idx]
			m := models[r.gen]
			if m == nil || r.label >= len(m.Landmarks) {
				continue
			}
			k := [2]uint64{r.gen, uint64(r.idx)}
			oc, ok := oracle[k]
			if !ok {
				for _, cfg := range m.Landmarks {
					c, _ := core.Measure(prog, cfg, in)
					if !ok || c < oc {
						oc, ok = c, true
					}
				}
				oracle[k] = oc
			}
			scost, ok2 := served[k]
			if !ok2 {
				scost, _ = core.Measure(prog, m.Landmarks[r.label], in)
				served[k] = scost
			}
			if oc > 0 {
				sum += scost / oc
				n++
			}
		}
		if n > 0 {
			phases[pi].MeanSlowdown = sum / float64(n)
		}
	}
}

// RenderDriftBench formats the report as a human-readable table.
func RenderDriftBench(r DriftBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "drift-bench: benchmark %s, %d clients, window %d, reservoir %d (min retain %d)\n",
		r.Benchmark, r.Clients, r.Window, r.ReservoirCapacity, r.MinRetain)
	fmt.Fprintf(&b, "detector fired after %d shifted requests; %d retrain(s), first published %.2fs after firing; generation %d at end\n",
		r.FiredAfterRequests, r.Retrains, r.RetrainSeconds, r.GenerationEnd)
	if r.Note != "" {
		fmt.Fprintf(&b, "NOTE: %s\n", r.Note)
	}
	fmt.Fprintf(&b, "%-13s %8s %7s %9s %12s %10s %9s %9s\n",
		"Phase", "req", "failed", "mismatch", "generations", "slowdown", "p50(µs)", "p99(µs)")
	fmt.Fprintln(&b, strings.Repeat("-", 84))
	for _, p := range r.Phases {
		gens := make([]string, len(p.GenerationsServed))
		for i, g := range p.GenerationsServed {
			gens[i] = fmt.Sprintf("%d", g)
		}
		fmt.Fprintf(&b, "%-13s %8d %7d %9d %12s %9.3fx %9.0f %9.0f\n",
			p.Phase, p.Requests, p.FailedRequests, p.LabelMismatches,
			strings.Join(gens, ","), p.MeanSlowdown, p.P50Micros, p.P99Micros)
	}
	fmt.Fprintf(&b, "quality recovered to pre-shift baseline: %v\n", r.QualityRecovered)
	return b.String()
}

// MergeDriftIntoBench folds a drift-bench report into the BENCH trajectory
// file at path, replacing only the "drift" section.
func MergeDriftIntoBench(path string, db DriftBenchReport) error {
	var rep BenchReport
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("existing %s is not a bench report: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rep.Drift = &db
	data, err := rep.BenchJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// slogFromLogf adapts the bench's printf-style progress logger to the
// structured logger the drift controller expects: each record renders as
// one slog text line through logf.
func slogFromLogf(logf func(string, ...any)) *slog.Logger {
	return slog.New(slog.NewTextHandler(logfWriter(logf), nil))
}

// logfWriter funnels slog's text-handler output into a printf-style
// logger, one line per Write.
type logfWriter func(string, ...any)

func (w logfWriter) Write(p []byte) (int, error) {
	w("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
