package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"inputtune/internal/benchmarks/clustering"
	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/serve"
)

// poolSeed derives the seed of the served request pool, distinct from the
// training (seed) and test (seed+10007) inputs exp.BuildCase draws.
func poolSeed(seed uint64, model int) uint64 { return seed + 500_009 + uint64(model)*7919 }

// poolInputs draws n held-out inputs from a case's generator. The PDE
// pools use the largest standard grid of each benchmark (63² and 15³
// points, ~28–31 KB frames), so pde-churn carries large requests.
func poolInputs(name string, seed uint64, n int) []core.Input {
	var out []core.Input
	switch name {
	case "sort2":
		for _, in := range sortbench.GenerateMix(sortbench.MixOptions{Count: n, Seed: seed, MaxSize: 1024}) {
			out = append(out, in)
		}
	case "clustering2":
		for _, in := range clustering.GenerateMix(clustering.MixOptions{Count: n, Seed: seed}) {
			out = append(out, in)
		}
	case "poisson2d":
		for _, in := range poisson2d.GenerateMix(poisson2d.MixOptions{Count: n, Seed: seed, Sizes: []int{63}}) {
			out = append(out, in)
		}
	case "helmholtz3d":
		for _, in := range helmholtz3d.GenerateMix(helmholtz3d.MixOptions{Count: n, Seed: seed, Sizes: []int{15}}) {
			out = append(out, in)
		}
	default:
		panic("perfbench: no pool generator for " + name)
	}
	return out
}

// artifact is one trained model as the daemon receives it.
type artifact struct {
	bytes  []byte
	reload []byte // pre-encoded POST /v1/reload of bytes
	// model is the artifact loaded back; expected labels come from its
	// Production.ClassifyInput.
	model *core.Model
}

// servedBench is one served benchmark and the artifacts the run trained
// for it, one per served input set; the window rotates through them.
type servedBench struct {
	name    string // case name
	bench   string // program name, the wire's benchmark key
	arts    []*artifact
	lastGen atomic.Uint64
}

// poolItem is one pre-encoded classify request and its expected label
// under each of its benchmark's artifacts.
type poolItem struct {
	bench int
	req   []byte // full HTTP request
	body  []byte // the ITW1 frame inside req
	want  []int
}

// serveRig is a running serving set-up: models, request pool, daemon and
// the load generator's connections.
type serveRig struct {
	benches []*servedBench
	pool    []poolItem
	// ranks maps popularity rank to pool index, one ranking per connection
	// (hot traffic): each caller has its own favourite inputs.
	ranks [][]int
	d     *daemon
	conns []*httpConn
	// genArt maps a daemon generation to the index of the artifact that
	// generation loaded; passes counts rotations (reloadAll calls).
	mu     sync.RWMutex
	genArt map[uint64]int
	passes atomic.Int64
}

func (rig *serveRig) close() {
	for _, c := range rig.conns {
		c.Close()
	}
	rig.conns = nil
	if rig.d != nil {
		rig.d.stop()
		rig.d = nil
	}
}

func (rig *serveRig) setGen(gen uint64, art int) {
	rig.mu.Lock()
	rig.genArt[gen] = art
	rig.mu.Unlock()
}

func (rig *serveRig) artOf(gen uint64) (int, bool) {
	rig.mu.RLock()
	defer rig.mu.RUnlock()
	a, ok := rig.genArt[gen]
	return a, ok
}

// loadArtifact decodes a saved model the way inputtuned does, through the
// codec registered for its program.
func loadArtifact(raw []byte) (*core.Model, error) {
	var head struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, err
	}
	codec, err := serve.LookupCodec(head.Benchmark)
	if err != nil {
		return nil, err
	}
	return core.LoadModel(codec.NewProgram(), bytes.NewReader(raw))
}

// setupServe performs one serving set-up: it loads the artifacts the
// training half produced (arts[set][bench]), builds and pre-encodes the
// request pool with expected labels under every artifact, starts
// inputtuned on the last set's artifacts, waits for /healthz, opens the
// connections and warms up.
func setupServe(cfg config, dir string, o *outcome, arts [][][]byte) (*serveRig, error) {
	wl := workloads[cfg.workload]
	rig := &serveRig{genArt: map[uint64]int{}}
	var paths []string
	for i, name := range wl.train[:wl.served] {
		sb := &servedBench{name: name}
		for set := range arts {
			raw := arts[set][i]
			a := &artifact{bytes: raw, reload: encodeRequest("POST", "/v1/reload", "application/json", "", raw)}
			var err error
			if a.model, err = loadArtifact(raw); err != nil {
				return nil, fmt.Errorf("loading the %s artifact of input set %d: %w", name, set, err)
			}
			sb.bench = a.model.Program.Name()
			sb.arts = append(sb.arts, a)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, sb.arts[len(sb.arts)-1].bytes, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
		rig.benches = append(rig.benches, sb)
	}

	churn := wl.churn
	n := cfg.hotPool
	if churn {
		n = cfg.churnPool
	}
	// Pool inputs are taken as the generator draws them. Under churn no
	// input repeats within a generation, so a lookup hits only when two
	// inputs share a cache key: never under a model whose static features
	// are continuous, often under one whose features take a few values.
	// Filtering for distinct keys instead would leave such a model's
	// benchmark a handful of inputs and make the run reload-bound.
	inputs := make([][]core.Input, len(rig.benches))
	for i, sb := range rig.benches {
		inputs[i] = poolInputs(sb.name, poolSeed(cfg.seed, i), n)
	}
	for j := 0; j < n; j++ {
		for i, sb := range rig.benches {
			if j >= len(inputs[i]) {
				continue
			}
			in := inputs[i][j]
			var buf bytes.Buffer
			if err := serve.EncodeBinaryRequest(&buf, sb.bench, in); err != nil {
				return nil, fmt.Errorf("encoding a %s request: %w", sb.name, err)
			}
			body := buf.Bytes()
			it := poolItem{bench: i,
				req: encodeRequest("POST", "/v1/classify", serve.ContentTypeBinary, serve.ContentTypeBinary, body)}
			it.body = it.req[len(it.req)-len(body):]
			for _, a := range sb.arts {
				it.want = append(it.want, a.model.Production.ClassifyInput(a.model.Program.Features(), in, nil))
			}
			rig.pool = append(rig.pool, it)
		}
	}
	if cfg.corruptLabel {
		it := &rig.pool[0]
		last := len(it.want) - 1
		it.want[last] = (it.want[last] + 1) % len(rig.benches[it.bench].arts[last].model.Landmarks)
	}
	for k := 0; k < cfg.conns; k++ {
		rig.ranks = append(rig.ranks, rand.New(rand.NewPCG(cfg.seed, uint64(k)+1)).Perm(len(rig.pool)))
	}

	d, err := startDaemon(cfg.daemon, paths, dir)
	if err != nil {
		return nil, err
	}
	rig.d = d
	for k := 0; k < cfg.conns; k++ {
		hc, err := dialHTTP(d.addr)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, hc)
	}
	raw, err := rig.conns[0].get("/v1/models")
	var listed []struct {
		Benchmark  string `json:"benchmark"`
		Generation uint64 `json:"generation"`
	}
	if err == nil {
		err = json.Unmarshal(raw, &listed)
	}
	for _, sb := range rig.benches {
		for _, l := range listed {
			if l.Benchmark == sb.bench {
				sb.lastGen.Store(l.Generation)
				rig.setGen(l.Generation, len(sb.arts)-1)
			}
		}
		if err == nil && sb.lastGen.Load() == 0 {
			err = fmt.Errorf("inputtuned does not list a model for %s", sb.bench)
		}
	}
	if err != nil {
		rig.close()
		return nil, err
	}

	// Warm-up: hot traffic fills the decision cache with the whole pool;
	// churn exercises one reload per model and a slice of the pool.
	warm := rig.pool
	stats := make([]*connStats, len(rig.conns))
	for k := range stats {
		stats[k] = &connStats{}
	}
	if churn {
		warm = warm[:min(len(warm), 64*cfg.conns)]
		rig.reloadAll(rig.conns[0], stats[0])
	}
	var wg sync.WaitGroup
	for k, hc := range rig.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := k; j < len(warm); j += len(rig.conns) {
				rig.request(hc, &warm[j], stats[k])
			}
		}()
	}
	wg.Wait()
	for _, st := range stats {
		rig.resolve(st)
		o.record("warm-up", st)
	}
	return rig, nil
}

// record adds a connection's requests and reloads to the outcome's
// operation counts, under kinds prefixed by phase.
func (o *outcome) record(phase string, st *connStats) {
	if phase != "" {
		phase += " "
	}
	for i := 0; i < st.requests; i++ {
		fail := ""
		if i < len(st.fails) {
			fail = st.fails[i]
		}
		o.op(phase+"requests", fail)
	}
	for i := 0; i < st.reloads; i++ {
		fail := ""
		if i < len(st.reloadErr) {
			fail = st.reloadErr[i]
		}
		o.op(phase+"reloads", fail)
	}
}

// connStats is one connection's share of a load window.
type connStats struct {
	start     time.Time
	lat       []int64 // ns, verified decisions only
	at        []int64 // ns from start to each lat sample's completion
	reloadLat []int64 // ns, successful reloads only
	requests  int
	reloads   int
	fails     []string // one entry per failed operation
	reloadErr []string
	// pending holds decisions from a generation whose reload response had
	// not yet been recorded when they arrived; resolve verifies them.
	pending []pendingDecision
}

type pendingDecision struct {
	it    *poolItem
	gen   uint64
	label int64
}

// request sends one classify request and verifies the decision against the
// expected label of the artifact that served it, found from the decision's
// generation.
func (rig *serveRig) request(hc *httpConn, it *poolItem, st *connStats) {
	t0 := time.Now()
	st.requests++
	status, body, err := hc.do(it.req)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	var bench []byte
	var gen uint64
	var label int64
	if err == nil {
		bench, gen, label, err = parseDecision(body)
	}
	if err == nil && string(bench) != rig.benches[it.bench].bench {
		err = fmt.Errorf("decision for benchmark %q, want %q", bench, rig.benches[it.bench].bench)
	}
	if err == nil {
		if a, ok := rig.artOf(gen); ok {
			err = rig.checkLabel(it, a, label)
		} else {
			st.pending = append(st.pending, pendingDecision{it, gen, label})
		}
	}
	if err != nil {
		st.fails = append(st.fails, err.Error())
		return
	}
	t1 := time.Now()
	st.lat = append(st.lat, int64(t1.Sub(t0)))
	st.at = append(st.at, int64(t1.Sub(st.start)))
}

func (rig *serveRig) checkLabel(it *poolItem, art int, label int64) error {
	if label != int64(it.want[art]) {
		return fmt.Errorf("%s served landmark %d, Production.ClassifyInput of artifact %d says %d",
			rig.benches[it.bench].bench, label, art, it.want[art])
	}
	return nil
}

// resolve verifies a connection's pending decisions once every reload
// response is recorded.
func (rig *serveRig) resolve(st *connStats) {
	for _, p := range st.pending {
		a, ok := rig.artOf(p.gen)
		err := fmt.Errorf("%s decision from generation %d, which no load of this run produced", rig.benches[p.it.bench].bench, p.gen)
		if ok {
			err = rig.checkLabel(p.it, a, p.label)
		}
		if err != nil {
			st.fails = append(st.fails, err.Error())
		}
	}
	st.pending = nil
}

// reloadAll hot-reloads every benchmark with the next artifact in
// rotation. The daemon starts on the last artifact, so the rotation runs
// 0, 1, ..., last, 0, ...
func (rig *serveRig) reloadAll(hc *httpConn, st *connStats) {
	p := int(rig.passes.Add(1))
	for _, sb := range rig.benches {
		rig.reload(hc, sb, (p-1)%len(sb.arts), st)
	}
}

// reload hot-reloads one artifact and checks that the reload answered 200
// and advanced the benchmark's generation.
func (rig *serveRig) reload(hc *httpConn, sb *servedBench, art int, st *connStats) {
	prev := sb.lastGen.Load()
	t0 := time.Now()
	st.reloads++
	status, body, err := hc.do(sb.arts[art].reload)
	dt := time.Since(t0)
	var resp struct {
		Benchmark  string `json:"benchmark"`
		Generation uint64 `json:"generation"`
	}
	switch {
	case err != nil:
	case status != 200:
		err = fmt.Errorf("reload %s: status %d: %.200s", sb.bench, status, body)
	default:
		if err = json.Unmarshal(body, &resp); err == nil && (resp.Benchmark != sb.bench || resp.Generation <= prev) {
			err = fmt.Errorf("reload %s answered benchmark %q generation %d, want a generation after %d", sb.bench, resp.Benchmark, resp.Generation, prev)
		}
	}
	if err != nil {
		st.reloadErr = append(st.reloadErr, err.Error())
		return
	}
	rig.setGen(resp.Generation, art)
	for {
		cur := sb.lastGen.Load()
		if resp.Generation <= cur || sb.lastGen.CompareAndSwap(cur, resp.Generation) {
			break
		}
	}
	st.reloadLat = append(st.reloadLat, int64(dt))
}

// parseDecision reads the benchmark, generation and landmark from an ITD1
// decision frame (the layout serve.AppendBinaryDecision writes).
func parseDecision(b []byte) (bench []byte, gen uint64, landmark int64, err error) {
	bad := errors.New("malformed ITD1 decision frame")
	if len(b) < 4 || string(b[:4]) != "ITD1" {
		return nil, 0, 0, bad
	}
	b = b[4:]
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n+8 {
		return nil, 0, 0, bad
	}
	bench, b = b[k:k+int(n)], b[k+int(n):]
	gen, b = binary.LittleEndian.Uint64(b), b[8:]
	if landmark, k = binary.Varint(b); k <= 0 {
		return nil, 0, 0, bad
	}
	return bench, gen, landmark, nil
}

// drive runs the closed-loop window: one goroutine per connection, each
// sending its next request only after verifying the previous decision.
// Hot traffic draws pool entries by Zipf popularity and serves each
// artifact for an equal share of the window; churn gives each
// connection a disjoint slice of the pool and reloads every model, with
// the next artifact in rotation, at the start of each pass through it, so
// no input repeats under one generation.
func (rig *serveRig) drive(cfg config, window time.Duration) ([]*connStats, time.Duration) {
	churn := workloads[cfg.workload].churn
	stats := make([]*connStats, len(rig.conns))
	expect := int(window.Seconds()*20000/float64(len(rig.conns))) + 1024
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for k, hc := range rig.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &connStats{start: start, lat: make([]int64, 0, expect), at: make([]int64, 0, expect)}
			stats[k] = st
			if !churn {
				// Connection 0 moves every benchmark to the next artifact
				// at each of the window's equal segments, one per artifact.
				segment := window / time.Duration(len(rig.benches[0].arts))
				next := start.Add(segment)
				z := rand.NewZipf(rand.New(rand.NewPCG(cfg.seed, uint64(k)+1000)), cfg.hotSkew, cfg.hotOffset, uint64(len(rig.pool)-1))
				for now := time.Now(); now.Before(deadline); now = time.Now() {
					if k == 0 && now.After(next) && deadline.Sub(now) > segment/2 {
						rig.reloadAll(hc, st)
						next = next.Add(segment)
					}
					rig.request(hc, &rig.pool[rig.ranks[k][z.Uint64()]], st)
				}
				return
			}
			for time.Now().Before(deadline) {
				rig.reloadAll(hc, st)
				for j := k; j < len(rig.pool) && time.Now().Before(deadline); j += len(rig.conns) {
					rig.request(hc, &rig.pool[j], st)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, st := range stats {
		rig.resolve(st)
	}
	return stats, wall
}

// daemonMetrics is the part of inputtuned's GET /metrics?format=json the
// benchmark reads.
type daemonMetrics struct {
	Requests uint64  `json:"requests"`
	Reloads  uint64  `json:"reloads"`
	P50      float64 `json:"latency_p50_us"`
	Cache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"decision_cache"`
}

func scrape(hc *httpConn) (daemonMetrics, error) {
	var m daemonMetrics
	raw, err := hc.get("/metrics?format=json")
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	return m, err
}

// runServe runs a workload's serving half on the training half's
// artifacts: set-up (repeated; the median is returned), the untraced
// window and, for traced runs, the in-process replay of the same traffic.
func runServe(cfg config, o *outcome, arts [][][]byte, window time.Duration) (float64, error) {
	base := cfg.workDir
	if base == "" {
		base = os.TempDir()
	}
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	// The window rotates through the models of several input sets: a
	// seed's models differ in the features they extract and in size, and
	// the serving cost with them. Traced runs report no set-up time and
	// set up once.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var times []float64
	var rig *serveRig
	for s := 0; s < setups; s++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = setupServe(cfg, dir, o, arts); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer rig.close()

	before, err := scrape(rig.conns[0])
	if err != nil {
		return 0, err
	}
	pid := rig.d.cmd.Process.Pid
	srv0, err := procCPU(pid)
	if err != nil {
		return 0, err
	}
	gen0 := processCPU()
	stats, wall := rig.drive(cfg, window)
	genCPU := processCPU() - gen0
	srv1, err := procCPU(pid)
	if err != nil {
		return 0, err
	}
	if !rig.d.alive() {
		return 0, fmt.Errorf("inputtuned exited during the run: %s", rig.d.logTail())
	}
	after, err := scrape(rig.conns[0])
	if err != nil {
		return 0, err
	}
	srvRSS, err := peakRSSMB(pid)
	if err != nil {
		return 0, err
	}

	// p99 is taken per tenth of the window and the median of the ten
	// reported: each slice holds thousands of requests, and a few seconds
	// of host interference then cannot set the run's figure.
	var lat []float64
	var reloadLat []float64
	slices := make([][]float64, 10)
	for _, st := range stats {
		for i, ns := range st.lat {
			lat = append(lat, float64(ns)/1e3)
			k := min(int(10*float64(st.at[i])/float64(wall)), 9)
			slices[k] = append(slices[k], float64(ns)/1e3)
		}
		for _, ns := range st.reloadLat {
			reloadLat = append(reloadLat, float64(ns)/1e6)
		}
		o.record("", st)
	}
	if len(lat) == 0 {
		return 0, errors.New("no request succeeded in the window")
	}
	nreq := float64(len(lat))
	fewest := len(lat)
	for _, sl := range slices {
		fewest = min(fewest, len(sl))
	}
	o.note("%d verified decisions over %.2f s on %d connections; the thinnest tenth of the window has %d, %d above its p99",
		len(lat), wall.Seconds(), len(rig.conns), fewest, fewest/100)
	perBench := make([]int, len(rig.benches))
	for _, it := range rig.pool {
		perBench[it.bench]++
	}
	o.note("pool %d entries (%v per benchmark) over %d benchmarks, %d artifacts each; daemon pid %d",
		len(rig.pool), perBench, len(rig.benches), len(rig.benches[0].arts), pid)

	if cfg.trace {
		p50 := quantile(lat, 0.5)
		o.metrics.add("transport_us", "us", p50-after.P50)
		o.metrics.add("server.p50_us", "us", after.P50)
		hits := float64(after.Cache.Hits - before.Cache.Hits)
		misses := float64(after.Cache.Misses - before.Cache.Misses)
		// Churn lookups miss unless a served model's keys are coarse, so
		// the hit rate is often 0 there: a note rather than a metric.
		o.note("decision cache hit rate %.4f over the window (%.0f hits, %.0f misses)", hits/max(hits+misses, 1), hits, misses)
		o.metrics.add("loadgen.cpu_us", "us", micros(genCPU)/nreq)
		rig.close()
		if err := replay(cfg, rig, o, window/4); err != nil {
			return 0, err
		}
		return median(times), nil
	}

	o.metrics.add("rps", "1/s", nreq/wall.Seconds())
	o.metrics.add("p50_us", "us", quantile(lat, 0.5))
	var p99s []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			p99s = append(p99s, quantile(sl, 0.99))
		}
	}
	o.metrics.add("p99_us", "us", median(p99s))
	o.metrics.add("server_cpu_us", "us", micros(srv1-srv0)/nreq)
	o.metrics.add("server_rss_mb", "MB", srvRSS)
	sum := 0.0
	for _, ms := range reloadLat {
		sum += ms
	}
	o.note("%d reloads (daemon counted %d), median round trip %.3f ms; reload round trips took %.1f%% of connection time",
		len(reloadLat), after.Reloads-before.Reloads, median(reloadLat), 100*sum/1e3/(wall.Seconds()*float64(len(rig.conns))))
	return median(times), nil
}

// daemon is a running inputtuned process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	log  string
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon runs inputtuned on the artifacts and waits until /healthz
// answers 200. It fails if the daemon exits first or never becomes ready.
func startDaemon(bin string, models []string, dir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-log-level", "warn"}
	for _, m := range models {
		args = append(args, "-model", m)
	}
	logPath := filepath.Join(dir, "inputtuned.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if !d.alive() {
			return nil, fmt.Errorf("inputtuned exited before /healthz was ready: %s", d.logTail())
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("inputtuned /healthz never became ready")
		}
		if hc, err := dialHTTP(addr); err == nil {
			_, err = hc.get("/healthz")
			hc.Close()
			if err == nil {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM (a graceful drain), kills after 10 s, and waits for
// the process to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) logTail() string {
	raw, _ := os.ReadFile(d.log)
	return string(raw[max(0, len(raw)-400):])
}
