package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/feature"
	"inputtune/internal/serve"
)

// replayer re-runs a serving window's request sequence in-process against
// a serve.Service loaded with the same artifacts, rotating through them as
// the window did. Hot traffic repeats the window's Zipf popularity over the
// pool (after one warm-up pass fills the caches) and moves to the next
// artifact at equal segments of the replay; churn traffic cycles the pool
// and reloads every model with the next artifact at the start of each
// pass.
type replayer struct {
	rig    *serveRig
	svc    *serve.Service
	churn  bool
	zipf   *rand.Zipf
	pos    int
	art    int // index of the loaded artifacts
	segs   int // hot segments completed
	loadMS []float64
	// loadMallocs counts heap allocations made by reloads, so they can be
	// kept out of the per-request figure.
	loadMallocs uint64
}

func newReplayer(cfg config, rig *serveRig) (*replayer, error) {
	r := &replayer{
		rig:   rig,
		svc:   serve.NewService(serve.BuiltinRegistry(), serve.Options{}),
		churn: workloads[cfg.workload].churn,
		zipf:  rand.NewZipf(rand.New(rand.NewPCG(cfg.seed, 100)), cfg.hotSkew, cfg.hotOffset, uint64(len(rig.pool)-1)),
	}
	return r, r.load(len(rig.benches[0].arts) - 1)
}

// load publishes artifact art of every benchmark through Service.Load,
// timing each.
func (r *replayer) load(art int) error {
	r.art = art
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	defer func() {
		runtime.ReadMemStats(&ms)
		r.loadMallocs += ms.Mallocs - before
	}()
	for _, sb := range r.rig.benches {
		t0 := time.Now()
		if _, err := r.svc.Load(sb.arts[art].bytes); err != nil {
			return err
		}
		r.loadMS = append(r.loadMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return nil
}

// next returns the next request of the sequence, reloading first when a
// churn pass begins.
func (r *replayer) next() (*poolItem, error) {
	if !r.churn {
		return &r.rig.pool[r.rig.ranks[0][r.zipf.Uint64()]], nil
	}
	if r.pos == len(r.rig.pool) {
		r.pos = 0
		if err := r.rotate(); err != nil {
			return nil, err
		}
	}
	r.pos++
	return &r.rig.pool[r.pos-1], nil
}

// segment moves hot traffic to the next artifact at each of the equal
// segments, one per artifact, of a replay of length budget begun at start.
func (r *replayer) segment(start time.Time, budget time.Duration) error {
	if r.churn {
		return nil
	}
	seg := budget / time.Duration(len(r.rig.benches[0].arts))
	if el := time.Since(start); el > seg*time.Duration(r.segs+1) && budget-el > seg/2 {
		r.segs++
		return r.rotate()
	}
	return nil
}

// rotate loads the next artifact of every benchmark.
func (r *replayer) rotate() error {
	return r.load((r.art + 1) % len(r.rig.benches[0].arts))
}

// layerTimes holds per-request durations (µs) of each layer call.
type layerTimes struct {
	decode, extract, lookup, predict, build, encode []float64
}

// classifyByLayers performs, in order, the calls Service.ClassifyBinary
// makes for one request on the inline path, plus the response encode,
// timing each when times is non-nil. It returns the served landmark.
func (r *replayer) classifyByLayers(it *poolItem, cache *serve.DecisionCache, buf []byte, times *layerTimes) (int, []byte, error) {
	t0 := time.Now()
	codec, in, err := serve.DecodeBinaryRequest(bytes.NewReader(it.body))
	if err != nil {
		return 0, buf, err
	}
	t1 := time.Now()
	snap, ok := r.svc.Registry().Get(codec.Name)
	if !ok {
		return 0, buf, fmt.Errorf("no model for %s", codec.Name)
	}
	model := snap.Model
	prod := model.Production
	set := model.Program.Features()
	meter := cost.NewMeter()
	var label int
	var hit bool
	var t2, t3, t4, t5 time.Time
	if prod.Kind == core.SubsetTree && len(prod.Static) > 0 {
		M := set.NumFeatures()
		scratch := feature.GetBuffer(M + len(prod.Static))[:M+len(prod.Static)]
		t2 = time.Now()
		row := set.ExtractSubsetInto(scratch[:M], in, prod.Static, meter)
		t3 = time.Now()
		vals := scratch[M:]
		for i, f := range prod.Static {
			vals[i] = row[f]
		}
		key := engine.Fingerprint([]uint64{snap.Generation}, vals)
		if label, hit = cache.Get(key); !hit {
			t4 = time.Now()
			label, _ = prod.PredictRow(row)
			t5 = time.Now()
			cache.Put(key, label)
		}
		feature.PutBuffer(scratch)
	} else {
		// Classifiers without a static feature subset bypass the cache;
		// their extraction and walk interleave and are billed together.
		t2 = time.Now()
		label = prod.ClassifyInput(set, in, meter)
		t3 = time.Now()
	}
	t6 := time.Now()
	d := &serve.Decision{
		Benchmark:         codec.Name,
		Generation:        snap.Generation,
		Landmark:          label,
		Config:            model.Landmarks[label],
		ConfigDescription: model.Program.Space().DescribeConfig(model.Landmarks[label]),
		Classifier:        prod.Name,
		FeatureUnits:      meter.Elapsed(),
		CacheHit:          hit,
	}
	codec.Release(in)
	t7 := time.Now()
	buf = serve.AppendBinaryDecision(buf[:0], d)
	t8 := time.Now()
	if times != nil {
		us := func(a, b time.Time) float64 { return micros(b.Sub(a)) }
		times.decode = append(times.decode, us(t0, t1))
		times.extract = append(times.extract, us(t2, t3))
		lookup := us(t3, t6)
		if !t4.IsZero() {
			times.predict = append(times.predict, us(t4, t5))
			lookup -= us(t4, t5)
		}
		times.lookup = append(times.lookup, lookup)
		times.build = append(times.build, us(t6, t7))
		times.encode = append(times.encode, us(t7, t8))
	}
	return label, buf, nil
}

// replay runs the in-process ledger: first layer by layer, then the whole
// Service.ClassifyBinary call, each for budget, checking every label as the
// window does.
func replay(cfg config, rig *serveRig, o *outcome, budget time.Duration) error {
	var r *replayer
	check := func(it *poolItem, label int, err error) {
		if err == nil {
			err = rig.checkLabel(it, r.art, int64(label))
		}
		fail := ""
		if err != nil {
			fail = err.Error()
		}
		o.op("replayed requests", fail)
	}

	// Layer by layer.
	r, err := newReplayer(cfg, rig)
	if err != nil {
		return err
	}
	cache := serve.NewDecisionCache(0)
	var buf []byte
	if !r.churn {
		for i := range rig.pool {
			_, buf, _ = r.classifyByLayers(&rig.pool[i], cache, buf, nil)
		}
	}
	var times layerTimes
	for start := time.Now(); time.Since(start) < budget; {
		if err := r.segment(start, budget); err != nil {
			return err
		}
		it, err := r.next()
		if err != nil {
			return err
		}
		var label int
		label, buf, err = r.classifyByLayers(it, cache, buf, &times)
		check(it, label, err)
	}

	// The whole call, counting its allocations (reloads' excluded).
	r, err = newReplayer(cfg, rig)
	if err != nil {
		return err
	}
	var rd bytes.Reader
	if !r.churn {
		for i := range rig.pool {
			rd.Reset(rig.pool[i].body)
			if _, err := r.svc.ClassifyBinary(&rd); err != nil {
				return err
			}
		}
	}
	var inproc []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	r.loadMallocs = 0
	for start := time.Now(); time.Since(start) < budget; {
		if err := r.segment(start, budget); err != nil {
			return err
		}
		it, err := r.next()
		if err != nil {
			return err
		}
		rd.Reset(it.body)
		t0 := time.Now()
		d, err := r.svc.ClassifyBinary(&rd)
		dt := time.Since(t0)
		label := -1
		if err == nil {
			label = d.Landmark
			buf = serve.AppendBinaryDecision(buf[:0], d)
		}
		inproc = append(inproc, micros(dt))
		check(it, label, err)
	}
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - mallocs0 - r.loadMallocs

	sum := median(times.decode) + median(times.extract) + median(times.lookup) + median(times.build)
	o.metrics.add("wire.decode_us", "us", median(times.decode))
	o.metrics.add("feature.extract_us", "us", median(times.extract))
	o.metrics.add("cache.lookup_us", "us", median(times.lookup))
	// Walks happen on cache misses: every churn request, and hot requests
	// the first time an input is seen under a new artifact. When no
	// artifact has a tree classifier there is no walk at all.
	predict := 0.0
	if len(times.predict) > 0 {
		predict = median(times.predict)
	}
	o.metrics.add("tree.predict_us", "us", predict)
	if r.churn {
		sum += predict
	}
	o.metrics.add("registry.load_ms", "ms", median(r.loadMS))
	o.metrics.add("decision.build_us", "us", median(times.build))
	o.metrics.add("wire.encode_us", "us", median(times.encode))
	o.metrics.add("classify.inproc_us", "us", median(inproc))
	o.metrics.add("layers.coverage", "ratio", sum/median(inproc))
	o.metrics.add("serve.allocs_per_req", "count", float64(mallocs)/float64(len(inproc)))
	o.note("replay: %d layer-timed requests (%d tree walks), %d whole-call requests",
		len(times.decode), len(times.predict), len(inproc))
	return nil
}
