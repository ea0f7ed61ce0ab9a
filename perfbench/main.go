// Command perfbench is the repository's end-to-end benchmark. It measures
// the two costs of the paper's pipeline — the offline time to train a
// two-level model and the time each served decision takes — on two
// workloads, all driven from this one process. Each workload runs the
// pipeline as a user does: it trains its cases repeatedly for the first
// half of the window, then serves the models it trained, one per input set,
// through a real inputtuned daemon for the second half.
//
//	discrete-hot  trains sort2, clustering2, binpacking, svd; serves sort2 +
//	              clustering2 from a cache-resident pool
//	pde-churn     trains poisson2d, helmholtz3d; serves both with no input
//	              repeated under one generation and hot reloads at every pass
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer ledger, timed around calls into each layer's public functions
// from this package (nothing inside the program is instrumented). Every
// served label, reload and trained artifact is checked; the last stdout line
// is a JSON result and the exit code is nonzero if any check failed. See
// README.md for the workload table and the layer → metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation: the workload, the input seed and the
// workload parameters. Every default is also spelled out in the command
// line recorded in BENCHMARK.json.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	// setups is how many times each set-up (input generation, serving
	// set-up) is performed; setup_s is the sum of their medians, and the
	// last set-up's state is the one measured.
	setups int
	// discreteSets and pdeSets are how many seed-derived input sets a
	// training run cycles through, so training metrics describe the input
	// distribution rather than one draw of it.
	discreteSets int
	pdeSets      int
	// conns is the load generator's persistent connection count.
	conns int
	// hotPool is the discrete-hot pool size per benchmark. Popularity is
	// Zipf: rank k is drawn with weight (hotOffset + k)^-hotSkew. The
	// offset flattens the head, so a run's cost rests on dozens of inputs
	// rather than on the few a seed happens to make most popular.
	hotPool   int
	hotSkew   float64
	hotOffset float64
	// churnPool is the pde-churn pool size per benchmark; each pass
	// through it starts with one hot reload of every served model.
	churnPool int

	// daemon is the inputtuned binary; workDir holds model artifacts.
	daemon  string
	workDir string

	// corruptLabel flips one expected label (tests use it to prove a wrong
	// served label is counted as a failure).
	corruptLabel bool
}

// workload is one pipeline: the Table-1 cases it trains, how many of them
// (a prefix of train) it serves, and how the serving traffic behaves.
type workload struct {
	train  []string
	served int
	// churn: each pass through the pool starts with a hot reload, so no
	// input repeats under one generation and lookups miss; otherwise
	// traffic is hot, drawn by skewed popularity from a pool warmed into
	// the decision cache.
	churn bool
}

var workloads = map[string]workload{
	"discrete-hot": {train: []string{"sort2", "clustering2", "binpacking", "svd"}, served: 2},
	"pde-churn":    {train: []string{"poisson2d", "helmholtz3d"}, served: 2, churn: true},
}

// inputSets is the number of seed-derived input sets the workload's
// training cycles through.
func (cfg config) inputSets() int {
	if workloads[cfg.workload].churn {
		return cfg.pdeSets
	}
	return cfg.discreteSets
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported numbers in insertion order for the human table.
type metrics struct {
	names []string
	vals  map[string]metric
}

func (m *metrics) add(name, unit string, v float64) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// opCount tallies one kind of checked operation.
type opCount struct{ attempted, failed int }

// outcome is a workload's full result: metrics, checked operations by kind,
// and the first few failure descriptions.
type outcome struct {
	metrics  metrics
	ops      map[string]*opCount
	failures []string
	notes    []string
}

func newOutcome() *outcome { return &outcome{ops: map[string]*opCount{}} }

// op records one checked operation of the given kind; a non-empty failure
// marks it failed.
func (o *outcome) op(kind, failure string) {
	c := o.ops[kind]
	if c == nil {
		c = &opCount{}
		o.ops[kind] = c
	}
	c.attempted++
	if failure != "" {
		c.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, kind+": "+failure)
		}
	}
}

// note adds a line to the human-readable report (sample counts, shares).
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) totals() (attempted, failed int) {
	for _, c := range o.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) result() result {
	att, fail := o.totals()
	ok := fail == 0 && att > 0
	for _, name := range o.metrics.names {
		if v := o.metrics.vals[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
	}
	return result{Correct: ok, Attempted: att, Failed: fail, Metrics: o.metrics.vals}
}

// render writes the human-readable report.
func (o *outcome) render(cfg config) string {
	var b strings.Builder
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%g (%s, GOMAXPROCS=%d)\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, runtime.GOMAXPROCS(0))
	for _, name := range o.metrics.names {
		m := o.metrics.vals[name]
		fmt.Fprintf(&b, "  %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	kinds := make([]string, 0, len(o.ops))
	for k := range o.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-26s attempted %d, failed %d\n", k, o.ops[k].attempted, o.ops[k].failed)
	}
	for _, n := range o.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, f := range o.failures {
		fmt.Fprintf(&b, "  FAILED %s\n", f)
	}
	return b.String()
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: discrete-hot or pde-churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 26, "length of the timed window in seconds (half training, half serving)")
	trace := fs.Int("trace", 0, "1 = per-layer ledger run, 0 = end-to-end metrics")
	fs.IntVar(&cfg.setups, "setups", 3, "set-ups of each kind per run (setup_s sums their medians)")
	fs.IntVar(&cfg.discreteSets, "discrete-sets", 12, "discrete-hot: seed-derived input sets trained per run")
	fs.IntVar(&cfg.pdeSets, "pde-sets", 8, "pde-churn: seed-derived input sets trained per run")
	fs.IntVar(&cfg.conns, "conns", runtime.NumCPU(), "serving: persistent connections (closed loop)")
	fs.IntVar(&cfg.hotPool, "hot-pool", 128, "discrete-hot: pool inputs per served benchmark")
	fs.Float64Var(&cfg.hotSkew, "hot-skew", 1.1, "discrete-hot: Zipf exponent of input popularity (> 1)")
	fs.Float64Var(&cfg.hotOffset, "hot-offset", 8, "discrete-hot: Zipf offset of input popularity (>= 1)")
	fs.IntVar(&cfg.churnPool, "churn-pool", 1000, "pde-churn: pool inputs per served benchmark (one reload per model per pass)")
	fs.StringVar(&cfg.daemon, "daemon", "", "path to the inputtuned binary")
	fs.StringVar(&cfg.workDir, "workdir", "", "directory for model artifacts")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = *trace != 0
	switch {
	case workloads[cfg.workload].train == nil:
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	case cfg.seed == 0:
		return cfg, fmt.Errorf("--seed must be nonzero")
	case cfg.seconds <= 0 || cfg.setups < 1 || cfg.discreteSets < 1 || cfg.pdeSets < 1 || cfg.conns < 1:
		return cfg, fmt.Errorf("--seconds, --setups, the input-set counts and --conns must be positive")
	case cfg.hotPool < 1 || cfg.churnPool < 1 || cfg.hotSkew <= 1 || cfg.hotOffset < 1:
		return cfg, fmt.Errorf("pool sizes must be positive, --hot-skew above 1 and --hot-offset at least 1")
	}
	return cfg, nil
}

// run executes one workload: the training half, then the serving half on
// the artifacts it produced. An error means the run could not be set up (a
// missing daemon, a daemon that died or never became healthy); checks that
// fail during the run are recorded in the outcome instead.
func run(cfg config) (*outcome, error) {
	if cfg.daemon == "" {
		return nil, errors.New("--daemon (the inputtuned binary) is required")
	}
	o := newOutcome()
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	inputSetup, arts, err := runTrain(cfg, o, half)
	if err != nil {
		return nil, err
	}
	// Collect the training half's garbage so the load generator does not
	// run beside it.
	runtime.GC()
	serveSetup, err := runServe(cfg, o, arts, half)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		o.metrics.add("setup_s", "s", inputSetup+serveSetup)
	}
	return o, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := o.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(o.render(cfg))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
