// Command experiments regenerates every table and figure of the paper's
// evaluation section:
//
//	experiments table1               Table 1 (all 8 tests)
//	experiments table1 -case sort2   Table 1 (one test)
//	experiments fig6                 Figure 6 per-input speedup distributions
//	experiments fig7                 Figure 7 theoretical model curves
//	experiments fig8                 Figure 8 speedup vs #landmarks
//	experiments ablation             §3.1 K-means vs random landmark ablation
//	experiments bench                perf trajectory: wall-clock, per-phase
//	                                 training breakdown, evaluations, cache
//	                                 hit-rate per benchmark (BENCH_1.json)
//	experiments serve-bench          serving-side trajectory: train, serve
//	                                 over loopback HTTP, drive with
//	                                 concurrent clients + hot reloads —
//	                                 one arm per wire format (the JSON vs
//	                                 binary A/B) — and merge throughput/
//	                                 p50/p99/allocs into the bench JSON's
//	                                 "serve" section
//	experiments cluster-bench        multi-replica fleet arm: stand up a
//	                                 replicas x clients grid behind the
//	                                 consistent-hash router, kill and
//	                                 restart a replica mid-run (zero failed
//	                                 requests enforced), and merge scaling,
//	                                 fault counters and per-replica cache
//	                                 stats into the bench JSON's "fleet"
//	                                 section
//	experiments drift-bench          online-adaptivity arm: serve
//	                                 in-distribution traffic, shift the
//	                                 live input distribution mid-run, and
//	                                 require the drift detector to fire, a
//	                                 background retrain to hot-publish with
//	                                 zero failed requests, and decision
//	                                 quality to recover; merges phase
//	                                 latency/quality into the bench JSON's
//	                                 "drift" section
//	experiments classify             wire-level client for a running
//	                                 inputtuned: encode -data in -wire
//	                                 json|binary and POST /v1/classify
//	                                 (the binary frame's curl)
//	experiments all                  everything above except bench
//
// Use -scale quick|default to trade fidelity for runtime, -out DIR to also
// write CSV files, and -v for training progress. `bench -json FILE`
// selects the JSON output path (default: the gitignored BENCH_latest.json;
// pass BENCH_<pr>.json to extend the committed trajectory); `bench
// -nocache` measures the engine's cache-disabled escape hatch for A/B
// comparison.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"inputtune/internal/benchmarks/binpack"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/exp"
	"inputtune/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scaleName := fs.String("scale", "default", "workload scale: quick or default")
	caseName := fs.String("case", "", "run a single test (e.g. sort2); empty = all")
	outDir := fs.String("out", "", "directory for CSV output (optional)")
	seed := fs.Uint64("seed", 0, "override RNG seed (0 = scale default)")
	verbose := fs.Bool("v", false, "log training progress")
	benchJSON := fs.String("json", "", "bench: output path for the JSON report (default BENCH_latest.json, or BENCH_latest.nocache.json with -nocache)")
	noCache := fs.Bool("nocache", false, "disable the measurement cache (A/B escape hatch; any subcommand)")
	clients := fs.Int("clients", 8, "serve-bench: concurrent load-generator clients")
	requests := fs.Int("requests", 2000, "serve-bench: total requests per case and wire")
	reloads := fs.Int("reloads", 2, "serve-bench: hot reloads fired mid-run")
	traceArm := fs.Bool("trace-arm", true, "serve-bench: add a fully-traced binary arm recording tracing's overhead delta")
	wire := fs.String("wire", "both", "serve-bench: wire formats to drive (json, binary, or both); classify: request format")
	replicasFlag := fs.String("replicas", "1,2,4", "cluster-bench: comma-separated fleet-size grid")
	kill := fs.Bool("kill", true, "cluster-bench: inject a replica kill+restart mid-run on multi-replica arms")
	shardQuantize := fs.Int("shard-quantize", 8, "cluster-bench: fingerprint quantization bits for consistent-hash sharding")
	preReq := fs.Int("pre", 0, "drift-bench: pre-shift in-distribution requests (0 = default 512)")
	shiftReq := fs.Int("shift", 0, "drift-bench: shifted-traffic request budget (0 = default 2048)")
	postReq := fs.Int("post", 0, "drift-bench: post-retrain requests (0 = default 512)")
	driftWindow := fs.Int("drift-window", 0, "drift-bench: detector window (0 = calibrated default)")
	retrainBudget := fs.Int("retrain-budget", 0, "drift-bench: tuner-evaluation cap per landmark for the drift retrain (0 = self-tuned default)")
	addr := fs.String("addr", "localhost:8077", "classify: inputtuned address")
	benchmark := fs.String("benchmark", "sort", "classify: benchmark name (sort or binpacking)")
	data := fs.String("data", "", "classify: comma-separated float input vector")
	fs.Parse(os.Args[2:])

	sc := exp.DefaultScale()
	if *scaleName == "quick" {
		sc = exp.QuickScale()
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.DisableCache = *noCache
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	names := exp.CaseNames
	if *caseName != "" {
		names = []string{*caseName}
	}

	switch cmd {
	case "table1":
		runTable1(names, sc, logf, *outDir, false)
	case "fig6":
		runTable1(names, sc, logf, *outDir, true)
	case "fig7":
		fmt.Println(exp.RenderFig7())
		writeFile(*outDir, "fig7.csv", exp.Fig7CSV())
	case "fig8":
		runFig8(names, sc, logf, *outDir)
	case "ablation":
		runAblation(names, sc, logf)
	case "bench":
		path := *benchJSON
		if path == "" {
			// The flagless defaults are scratch files (gitignored), so a
			// casual run can never clobber a committed BENCH_<pr>.json
			// trajectory snapshot; -nocache gets its own name so an A/B
			// report is never mistaken for the real trajectory.
			path = "BENCH_latest.json"
			if *noCache {
				path = "BENCH_latest.nocache.json"
			}
		}
		rep := exp.RunBench(names, *scaleName, sc, logf)
		fmt.Println(exp.RenderBench(rep))
		data, err := rep.BenchJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "encode bench report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	case "classify":
		if err := runClassify(*addr, *benchmark, *wire, *data); err != nil {
			fmt.Fprintf(os.Stderr, "classify: %v\n", err)
			os.Exit(1)
		}
	case "serve-bench":
		path := *benchJSON
		if path == "" {
			path = "BENCH_latest.json"
		}
		var cases []string
		if *caseName != "" {
			cases = []string{*caseName}
		}
		wires, err := parseWires(*wire)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve-bench: %v\n", err)
			os.Exit(2)
		}
		sb, err := exp.RunServeBench(exp.ServeBenchOptions{
			Cases:                cases,
			Wires:                wires,
			Clients:              *clients,
			Requests:             *requests,
			Reloads:              *reloads,
			DisableDecisionCache: *noCache,
			TraceArm:             *traceArm,
			Scale:                sc,
			Logf:                 logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(exp.RenderServeBench(sb))
		for _, res := range sb.Results {
			if res.FailedRequests != 0 {
				fmt.Fprintf(os.Stderr, "serve-bench: %d failed requests on %s\n", res.FailedRequests, res.Case)
				os.Exit(1)
			}
		}
		if err := exp.MergeServeIntoBench(path, sb); err != nil {
			fmt.Fprintf(os.Stderr, "merge into %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "merged serve section into %s\n", path)
	case "cluster-bench":
		path := *benchJSON
		if path == "" {
			path = "BENCH_latest.json"
		}
		grid, err := parseReplicas(*replicasFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster-bench: %v\n", err)
			os.Exit(2)
		}
		fb, err := exp.RunClusterBench(exp.ClusterBenchOptions{
			Case:         *caseName,
			Replicas:     grid,
			Clients:      *clients,
			Requests:     *requests,
			Kill:         *kill,
			QuantizeBits: *shardQuantize,
			Scale:        sc,
			Logf:         logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(exp.RenderClusterBench(fb))
		if fb.Failed() {
			fmt.Fprintln(os.Stderr, "cluster-bench: failed requests or label mismatches — the fleet did not absorb the fault")
			os.Exit(1)
		}
		if err := exp.MergeFleetIntoBench(path, fb); err != nil {
			fmt.Fprintf(os.Stderr, "merge into %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "merged fleet section into %s\n", path)
	case "drift-bench":
		path := *benchJSON
		if path == "" {
			path = "BENCH_latest.json"
		}
		db, err := exp.RunDriftBench(exp.DriftBenchOptions{
			Clients:       *clients,
			PreRequests:   *preReq,
			ShiftRequests: *shiftReq,
			PostRequests:  *postReq,
			Window:        *driftWindow,
			RetrainBudget: *retrainBudget,
			Scale:         sc,
			Logf:          logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "drift-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(exp.RenderDriftBench(db))
		if db.Failed() {
			fmt.Fprintln(os.Stderr, "drift-bench: failed requests or label mismatches — the reload was not seamless")
			os.Exit(1)
		}
		if !db.DetectorFired || db.Retrains == 0 {
			fmt.Fprintln(os.Stderr, "drift-bench: the drift loop never closed")
			os.Exit(1)
		}
		if err := exp.MergeDriftIntoBench(path, db); err != nil {
			fmt.Fprintf(os.Stderr, "merge into %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "merged drift section into %s\n", path)
	case "all":
		rows := runTable1(names, sc, logf, *outDir, true)
		fmt.Println(exp.RenderFig7())
		writeFile(*outDir, "fig7.csv", exp.Fig7CSV())
		for _, row := range rows {
			pts := exp.Fig8Sweep(row.Model.Program, row.TestData, row.StaticPerInput,
				exp.DefaultFig8Sizes(sc.K1), 20, sc.Seed+5)
			fmt.Println(exp.RenderFig8(row.Name, pts))
			writeFile(*outDir, "fig8_"+row.Name+".csv", exp.Fig8CSV(row.Name, pts))
		}
		runAblation([]string{"sort2", "binpacking"}, sc, logf)
	default:
		usage()
		os.Exit(2)
	}
}

func runTable1(names []string, sc exp.Scale, logf func(string, ...any), outDir string, fig6 bool) []*exp.Table1Row {
	var rows []*exp.Table1Row
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		row := exp.RunCase(exp.BuildCase(name, sc), sc, logf)
		rows = append(rows, row)
		fmt.Fprintf(os.Stderr, "  production classifier: %s (features %s)\n",
			row.Report.Production, strings.Join(row.Report.SelectedFeatures, ", "))
		fmt.Fprintf(os.Stderr, "  level-2 relabelled %.1f%% of inputs; two-level satisfaction %.1f%%\n",
			100*row.Report.RelabelFraction, 100*row.TwoLevelAccuracy)
	}
	fmt.Println(exp.RenderTable1(rows))
	writeFile(outDir, "table1.csv", exp.Table1CSV(rows))
	if fig6 {
		for _, row := range rows {
			fmt.Println(exp.RenderFig6(row))
			var b strings.Builder
			b.WriteString("rank,speedup\n")
			for i, s := range exp.Fig6Series(row) {
				fmt.Fprintf(&b, "%d,%.4f\n", i, s)
			}
			writeFile(outDir, "fig6_"+row.Name+".csv", b.String())
		}
	}
	return rows
}

func runFig8(names []string, sc exp.Scale, logf func(string, ...any), outDir string) {
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		row := exp.RunCase(exp.BuildCase(name, sc), sc, logf)
		pts := exp.Fig8Sweep(row.Model.Program, row.TestData, row.StaticPerInput,
			exp.DefaultFig8Sizes(sc.K1), 20, sc.Seed+5)
		fmt.Println(exp.RenderFig8(name, pts))
		writeFile(outDir, "fig8_"+name+".csv", exp.Fig8CSV(name, pts))
	}
}

func runAblation(names []string, sc exp.Scale, logf func(string, ...any)) {
	// The paper's comparison is at few landmarks (5); keep K1 small here.
	abSc := sc
	abSc.K1 = 5
	var results []exp.AblationResult
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "ablation %s...\n", name)
		results = append(results, exp.AblationLandmarks(exp.BuildCase(name, abSc), abSc, logf))
	}
	fmt.Println(exp.RenderAblation(results))

	// Second ablation: single-centroid vs sample-based landmark tuning.
	var tsResults []exp.TuneSamplesResult
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "tune-samples ablation %s...\n", name)
		tsResults = append(tsResults,
			exp.AblationTuneSamples(exp.BuildCase(name, sc), sc, []int{1, 3}, logf)...)
	}
	fmt.Println(exp.RenderTuneSamples(tsResults))
}

// parseReplicas resolves the cluster-bench -replicas grid flag.
func parseReplicas(s string) ([]int, error) {
	var grid []int
	for _, fld := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(fld))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -replicas element %q (want positive integers)", fld)
		}
		grid = append(grid, n)
	}
	return grid, nil
}

// parseWires resolves the serve-bench -wire flag.
func parseWires(s string) ([]serve.Wire, error) {
	if s == "" || s == "both" {
		return []serve.Wire{serve.WireJSON, serve.WireBinary}, nil
	}
	w, err := serve.ParseWire(s)
	if err != nil {
		return nil, err
	}
	return []serve.Wire{w}, nil
}

// runClassify is a tiny wire-level client for a running inputtuned: it
// encodes the given vector in the chosen format (curl cannot speak the
// binary frame; this can) and prints the server's Decision JSON. Only the
// single-vector benchmarks make sense from a comma-separated flag.
func runClassify(addr, benchmark, wireName, data string) error {
	if data == "" {
		return fmt.Errorf("need -data (comma-separated floats)")
	}
	var vals []float64
	for _, fld := range strings.Split(data, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
		if err != nil {
			return fmt.Errorf("bad -data element %q: %w", fld, err)
		}
		vals = append(vals, v)
	}
	var in core.Input
	switch benchmark {
	case "sort":
		in = &sortbench.List{Data: vals}
	case "binpacking":
		in = &binpack.Items{Sizes: vals}
	default:
		return fmt.Errorf("classify supports the vector benchmarks sort and binpacking, not %q", benchmark)
	}
	// The flag's default "both" exists for serve-bench; a single POST must
	// name one format explicitly, or a user checking the binary path could
	// silently exercise JSON instead.
	w, err := serve.ParseWire(wireName)
	if err != nil {
		return fmt.Errorf("classify needs -wire json or -wire binary: %w", err)
	}
	var body bytes.Buffer
	if w == serve.WireBinary {
		if err := serve.EncodeBinaryRequest(&body, benchmark, in); err != nil {
			return err
		}
	} else {
		codec, err := serve.LookupCodec(benchmark)
		if err != nil {
			return err
		}
		raw, err := codec.EncodeJSON(in)
		if err != nil {
			return err
		}
		env, err := json.Marshal(struct {
			Benchmark string          `json:"benchmark"`
			Input     json.RawMessage `json:"input"`
		}{benchmark, raw})
		if err != nil {
			return err
		}
		body.Write(env)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/classify", &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", w.ContentType())
	if w == serve.WireBinary {
		// Binary means binary both ways: ask for the ITD1 response frame
		// too (the server falls back to JSON if its deployment pinned the
		// json wire), then decode and print the Decision as JSON so the
		// output shape matches the JSON wire's.
		req.Header.Set("Accept", serve.ContentTypeBinary)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") == serve.ContentTypeBinary {
		d, err := serve.DecodeBinaryDecision(resp.Body)
		if err != nil {
			return fmt.Errorf("decoding binary decision frame: %w", err)
		}
		out, err := json.Marshal(d)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Print(string(out))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}

func writeFile(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", dir, err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cannot write %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <table1|fig6|fig7|fig8|ablation|bench|serve-bench|cluster-bench|drift-bench|classify|all> [flags]
flags:
  -scale quick|default   workload scale (default "default")
  -case NAME             single test: sort1 sort2 clustering1 clustering2
                         binpacking svd poisson2d helmholtz3d
  -out DIR               also write CSVs to DIR
  -seed N                override the RNG seed
  -v                     verbose training progress
  -json FILE             bench: JSON report path. Pass BENCH_<pr>.json to
                         extend the committed perf trajectory; the default
                         is the gitignored scratch file BENCH_latest.json
                         (BENCH_latest.nocache.json under -nocache), so a
                         flagless run never clobbers a committed snapshot
  -nocache               disable the engine's memoized measurement cache
                         (any subcommand). A/B escape hatch: results are
                         byte-identical with the cache on or off; only
                         wall-clock and the cache counters change. For
                         serve-bench it disables the server's decision
                         cache instead — labels are identical either way
  -clients N             serve-bench: concurrent clients (default 8)
  -requests N            serve-bench: total requests per case and wire
                         (default 2000)
  -reloads N             serve-bench: hot reloads spaced through the run
                         (default 2; 0 = no-reload baseline); every reload
                         must complete with zero failed requests or the
                         run exits nonzero
  -trace-arm             serve-bench: add a binary arm with every request
                         traced (default true); the report records the
                         throughput delta vs the untraced binary arm
  -wire FORMAT           serve-bench: json, binary, or both (default both —
                         one load arm per format, the JSON-vs-binary A/B);
                         classify: the wire format — binary sends a binary
                         request frame AND negotiates the ITD1 binary
                         response, decoded and printed as Decision JSON
  -replicas LIST         cluster-bench: comma-separated fleet-size grid
                         (default "1,2,4"; the 1-replica arm is the
                         scaling baseline)
  -kill BOOL             cluster-bench: inject a replica kill at ~35% and
                         a restart at ~70% of the run on every
                         multi-replica arm (default true); zero failed
                         requests through the outage or exit nonzero
  -shard-quantize N      cluster-bench: feature-fingerprint quantization
                         bits for consistent-hash sharding (default 8);
                         replica decision caches stay exact regardless
  -pre N                 drift-bench: pre-shift in-distribution requests
                         (default 512); the detector must stay quiet here
  -shift N               drift-bench: shifted-traffic budget (default 2048);
                         the detector must fire and a background retrain
                         must hot-publish with zero failed requests, or the
                         run exits nonzero
  -post N                drift-bench: post-retrain requests on the new
                         model (default 512)
  -drift-window N        drift-bench: detector window in requests (default:
                         the calibrated 256; smaller fires sooner, noisier)
  -addr HOST:PORT        classify: inputtuned address (default localhost:8077)
  -benchmark NAME        classify: sort or binpacking (default sort)
  -data FLOATS           classify: comma-separated input vector, e.g.
                         "5,1,4,2" — encoded in the chosen wire format and
                         POSTed to /v1/classify (the binary wire's Go
                         client; curl cannot frame it)`)
}
