// Command inputtuned is the serving daemon: it loads trained model
// artifacts (SaveModel output) into a hot-reloadable registry and serves
// the classification API over HTTP.
//
//	inputtuner -bench sort2 -save model.json   # train once
//	inputtuned -model model.json               # deploy
//	curl -s localhost:8077/v1/classify -d \
//	  '{"benchmark": "sort", "input": {"data": [3, 1, 2]}}'
//
// Several -model flags serve several benchmarks side by side; POST a new
// artifact to /v1/reload to hot-swap a model under live traffic (zero
// dropped requests — in-flight requests finish on the snapshot they
// started with). For a dependency-free demo, -train CASE trains a
// quick-scale model in-process instead of loading an artifact.
//
// -fleet N runs a multi-replica fleet behind one listener: N independent
// serving stacks (each with its own registry and decision cache) behind a
// consistent-hash router that shards requests on the quantized input
// fingerprint (-shard-quantize), health-checks its replicas, and rolls
// /v1/reload artifacts across them one at a time. SIGTERM drains
// gracefully in either mode: new requests are rejected while in-flight
// ones finish.
//
// -drift enables the adaptive retraining loop in either mode (models
// must carry a distribution summary): served traffic is watched for
// input-distribution drift, and a detected shift triggers a background
// retrain on retained served inputs, published through the hot-reload
// path — svc reload in single mode, a rolling reload across the fleet.
//
// Endpoints: POST /v1/classify, POST /v1/reload, GET /v1/models (single
// mode), GET /metrics (?format=json), GET /healthz, GET /debug/traces
// (when tracing is on). -debug-addr starts a second listener with
// net/http/pprof profiles plus /debug/traces, and implies request
// tracing (1 in 1) unless -trace-sample overrides it. Logs are
// structured (log/slog); -log-level and -log-format tune them.
//
// /v1/classify negotiates the request format on Content-Type: the JSON
// envelope above, or the length-prefixed binary frame
// (application/x-inputtune; see docs/ARCHITECTURE.md § Wire protocol) that
// large-input clients should prefer — `experiments classify -wire binary`
// is a ready-made client. -wire restricts which formats a deployment
// accepts.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/drift"
	"inputtune/internal/exp"
	"inputtune/internal/fleet"
	"inputtune/internal/obs"
	"inputtune/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8077", "listen address")
	cacheCap := flag.Int("cache", 0, "decision-cache capacity in entries (0 = default)")
	noCache := flag.Bool("no-cache", false, "disable the decision cache")
	quantize := flag.Int("cache-quantize", 0, "decision-cache key quantization in mantissa bits (0 = exact keys; >0 trades the bit-identical guarantee for hit rate on near-duplicate inputs)")
	wireList := flag.String("wire", "json,binary", "accepted request wire formats (comma-separated: json, binary)")
	trainCase := flag.String("train", "", "train a quick-scale model for this case in-process (e.g. sort2)")
	fleetN := flag.Int("fleet", 0, "run N in-process replicas behind a consistent-hash router (0/1 = single service)")
	shardQuantize := flag.Int("shard-quantize", 8, "fleet: fingerprint quantization bits for request sharding (replica caches stay exact)")
	driftOn := flag.Bool("drift", false, "watch served traffic for input-distribution drift and retrain + hot-reload automatically (models must carry a distribution summary)")
	driftWindow := flag.Int("drift-window", 0, "drift: detector window in requests (0 = calibrated default)")
	driftCapacity := flag.Int("drift-capacity", 0, "drift: retention reservoir capacity (0 = default)")
	driftMinRetain := flag.Int("drift-min-retain", 0, "drift: minimum retained inputs before a retrain may start (0 = default)")
	retrainBudget := flag.Int("retrain-budget", 0, "drift: tuner-evaluation cap per landmark for drift retrains (0 = the self-tuning meta-loop's own default)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiles and /debug/traces on this extra listener (empty = disabled)")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N requests (0 = auto: 1 when -debug-addr is set, otherwise off; <0 forces off)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	verbose := flag.Bool("v", false, "shorthand for -log-level debug (adds per-request and setup-progress records)")
	var modelPaths []string
	flag.Func("model", "model artifact to serve (repeatable)", func(path string) error {
		modelPaths = append(modelPaths, path)
		return nil
	})
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "-log-level: %v\n", err)
		os.Exit(2)
	}
	if *verbose {
		level = slog.LevelDebug
	}
	var handlerOpts = &slog.HandlerOptions{Level: level}
	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, handlerOpts)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, handlerOpts)
	default:
		fmt.Fprintf(os.Stderr, "-log-format: unknown format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(logHandler)
	if len(modelPaths) == 0 && *trainCase == "" {
		fmt.Fprintln(os.Stderr, "need at least one -model artifact or -train CASE")
		flag.Usage()
		os.Exit(2)
	}
	var wires []serve.Wire
	for _, s := range strings.Split(*wireList, ",") {
		w, err := serve.ParseWire(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "-wire: %v\n", err)
			os.Exit(2)
		}
		wires = append(wires, w)
	}

	// Collect every artifact first: files, then the optional in-process
	// training run. Fleet mode loads the same bytes into every replica, so
	// all replicas start at the same model version (same artifact hash).
	var artifacts [][]byte
	for _, path := range modelPaths {
		artifact, err := os.ReadFile(path)
		if err != nil {
			logger.Error("reading model artifact failed", "path", path, "error", err)
			os.Exit(1)
		}
		artifacts = append(artifacts, artifact)
	}
	if *trainCase != "" {
		sc := exp.QuickScale()
		c := exp.BuildCase(*trainCase, sc)
		trainLogf := func(string, ...any) {}
		if logger.Enabled(context.Background(), slog.LevelDebug) {
			trainLogf = func(format string, args ...any) {
				logger.Debug(fmt.Sprintf(format, args...), "component", "train")
			}
		}
		logger.Info("training quick-scale model", "case", *trainCase, "inputs", len(c.Train))
		model := core.TrainModel(c.Prog, c.Train, core.Options{
			K1: sc.K1, Seed: sc.Seed, TunerPopulation: sc.TunerPop,
			TunerGenerations: sc.TunerGens, Parallel: true, Logf: trainLogf,
		})
		var buf bytes.Buffer
		if err := core.SaveModel(model, &buf); err != nil {
			logger.Error("serialising trained model failed", "error", err)
			os.Exit(1)
		}
		artifacts = append(artifacts, buf.Bytes())
	}

	// One tracer is shared by every participant in the process — router,
	// replicas, drift loop — so records tagged with different sites merge
	// under one trace ID at /debug/traces. -trace-sample 0 means "auto":
	// tracing rides along whenever the debug listener is up.
	sampleEvery := *traceSample
	if sampleEvery == 0 && *debugAddr != "" {
		sampleEvery = 1
	}
	var tracer *obs.Tracer
	if sampleEvery > 0 {
		tracer = obs.New(obs.Options{SampleEvery: sampleEvery})
	}

	svcOpts := serve.Options{
		Cache: serve.CacheOptions{
			Capacity:     *cacheCap,
			Disable:      *noCache,
			QuantizeBits: *quantize,
		},
		Wires:  wires,
		Tracer: tracer,
	}
	// newService builds one full serving stack with every artifact loaded —
	// the single daemon, or one fleet replica. The registry is returned too
	// so the drift controller can resolve baselines from it. site names the
	// service's spans in merged traces ("" = the serve default).
	newService := func(tag, site string) (*serve.Service, *serve.Registry) {
		opts := svcOpts
		opts.TraceSite = site
		reg := serve.BuiltinRegistry()
		svc := serve.NewService(reg, opts)
		for _, artifact := range artifacts {
			snap, err := svc.Load(artifact)
			if err != nil {
				logger.Error("loading artifact failed", "replica", tag, "error", err)
				os.Exit(1)
			}
			logger.Info("loaded model", "replica", tag, "benchmark", snap.Benchmark,
				"production", snap.Model.Production.Name, "generation", snap.Generation)
		}
		return svc, reg
	}
	// newDriftController wires the adaptive-retraining loop: retrains run
	// at the quick training scale (the same budget -train uses), and
	// publish goes through the given hot-reload path.
	newDriftController := func(reg *serve.Registry, publish func(string, []byte) error) *drift.Controller {
		sc := exp.QuickScale()
		return drift.NewController(drift.Options{
			Registry: reg,
			Train: core.Options{
				K1: sc.K1, Seed: sc.Seed, TunerPopulation: sc.TunerPop,
				TunerGenerations: sc.TunerGens, Parallel: true,
			},
			Detector:      drift.DetectorOptions{Window: *driftWindow},
			Capacity:      *driftCapacity,
			MinRetain:     *driftMinRetain,
			RetrainBudget: *retrainBudget,
			Publish:       publish,
			Logger:        logger.With("component", "drift"),
			Tracer:        tracer,
		})
	}

	var handler http.Handler
	var drain func(context.Context) error
	var serving string
	var driftCtrl *drift.Controller
	if *fleetN > 1 {
		replicas := make([]fleet.Replica, *fleetN)
		services := make([]*serve.Service, *fleetN)
		regs := make([]*serve.Registry, *fleetN)
		for i := range replicas {
			name := fmt.Sprintf("replica-%d", i)
			services[i], regs[i] = newService(name, name)
			replicas[i] = fleet.NewLocalReplica(name, services[i])
		}
		fleetLogf := func(string, ...any) {}
		if logger.Enabled(context.Background(), slog.LevelDebug) {
			fleetLogf = func(format string, args ...any) {
				logger.Debug(fmt.Sprintf(format, args...), "component", "fleet")
			}
		}
		var rt *fleet.Router
		if *driftOn {
			// One shared controller: the router shards traffic, so every
			// replica's sample tap feeds the same detector and reservoir,
			// and a triggered retrain publishes through the rolling reload
			// (replica by replica, zero dropped requests). Baselines
			// resolve from replica 0's registry — the rollout keeps every
			// replica on the same artifact, and samples racing a rollout
			// are dropped by the controller's generation check. Only
			// replica 0 reports the loop's status, so the fleet roll-up
			// counts the shared loop once, not once per replica.
			driftCtrl = newDriftController(regs[0], func(_ string, artifact []byte) error {
				_, err := rt.RollingReload(artifact)
				return err
			})
			for _, svc := range services {
				svc.SetObserver(driftCtrl)
			}
			services[0].SetDriftProvider(driftCtrl.Status)
		}
		rt = fleet.NewRouter(replicas, fleet.Options{
			QuantizeBits:   *shardQuantize,
			HealthInterval: 500 * time.Millisecond,
			Logf:           fleetLogf,
			Tracer:         tracer,
		})
		handler = fleet.NewHandler(rt)
		drain = rt.Close
		serving = fmt.Sprintf("%d-replica fleet (shard quantize %d bits)", *fleetN, *shardQuantize)
	} else {
		svc, reg := newService("inputtuned", "")
		if *driftOn {
			driftCtrl = newDriftController(reg, func(_ string, artifact []byte) error {
				_, err := svc.Load(artifact)
				return err
			})
			driftCtrl.Bind(svc)
		}
		handler = serve.NewHandler(svc)
		drain = svc.Drain
		serving = "single service"
	}
	if *driftOn {
		serving += " + drift-adaptive retraining"
		// A drain must also let any in-flight background retrain finish —
		// killing the process mid-TrainModel would just lose the work.
		inner := drain
		drain = func(ctx context.Context) error {
			err := inner(ctx)
			driftCtrl.Wait()
			return err
		}
	}
	if logger.Enabled(context.Background(), slog.LevelDebug) {
		handler = logRequests(handler, logger)
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug listener is a separate address on purpose: pprof profiles
	// and trace dumps stay off the serving port, so they can be firewalled
	// (or bound to localhost) independently of traffic.
	var debugServer *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("GET /debug/pprof/", pprof.Index)
		dmux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		if tracer != nil {
			dmux.Handle("GET /debug/traces", obs.Handler(tracer))
		}
		debugServer = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		logger.Info("debug endpoints up", "addr", *debugAddr, "tracing", tracer.Enabled())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Info("serving", "mode", serving, "addr", *addr,
		"trace_sample", sampleEvery, "log_level", level.String())

	select {
	case err := <-errCh:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drain first — /healthz flips to 503 and new classifies are rejected
	// while in-flight requests finish — then close the listener.
	if err := drain(shutdownCtx); err != nil {
		logger.Error("drain failed", "error", err)
	}
	if debugServer != nil {
		_ = debugServer.Shutdown(shutdownCtx)
	}
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown failed", "error", err)
		os.Exit(1)
	}
}

// logRequests wraps the handler with one debug-level access record per
// request (active only when the logger passes debug).
func logRequests(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Debug("request", "method", r.Method, "path", r.URL.Path,
			"duration", time.Since(start))
	})
}
