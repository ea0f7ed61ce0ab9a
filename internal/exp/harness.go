package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/serve"
)

// servedCase is one trained Table-1 case ready to serve: the model
// artifact every replica loads and the offline ground-truth label of
// every test input.
type servedCase struct {
	c        Case
	artifact []byte
	want     []int
}

// newServedCase trains one Table-1 case's model, serialises it to the
// artifact every replica loads, and precomputes the offline ground-truth
// labels the served decisions are checked against.
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

// encodeBodies renders every input as one binary request frame.
func encodeBodies(benchmark string, inputs []core.Input) ([][]byte, error) {
	bodies := make([][]byte, len(inputs))
	for i, in := range inputs {
		var buf bytes.Buffer
		if err := serve.EncodeBinaryRequest(&buf, benchmark, in); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

// defaultClients is the closed-loop client count cluster-bench and
// drift-bench run with unless told otherwise.
const defaultClients = 8

// served is one request the driver saw answered 200 with a decodable
// decision frame.
type served struct {
	idx   int // request index, 0..n-1
	gen   uint64
	label int
	lat   time.Duration
}

// drive is the closed-loop load driver: clients goroutines post n binary
// classify requests to the server at url, each waiting for its answer
// before sending the next. Client g takes a contiguous slice of request
// indices (the last one also takes the remainder; with fewer requests
// than clients, one request per client), and request j sends
// bodies[j%len(bodies)] with an ITD1 response negotiated. done, when
// non-nil, is bumped once per finished request, answered or not. It
// returns every decoded 200 answer, in no particular order, plus the
// count of failed requests (transport error, non-200 or an undecodable
// frame).
func drive(client *http.Client, url string, bodies [][]byte, n, clients int, done *atomic.Uint64) ([]served, int) {
	perClient := n / clients
	if perClient < 1 {
		perClient, clients = 1, n
	}
	out := make([][]served, clients)
	var failed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		lo, hi := g*perClient, (g+1)*perClient
		if g == clients-1 {
			hi = n
		}
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			recs := make([]served, 0, hi-lo)
			for j := lo; j < hi; j++ {
				if r, ok := post(client, url, bodies[j%len(bodies)]); ok {
					r.idx = j
					recs = append(recs, r)
				} else {
					failed.Add(1)
				}
				if done != nil {
					done.Add(1)
				}
			}
			out[g] = recs
		}(g, lo, hi)
	}
	wg.Wait()
	var all []served
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all, int(failed.Load())
}

// post sends one binary classify request and decodes its ITD1 answer.
func post(client *http.Client, url string, body []byte) (served, bool) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return served{}, false
	}
	req.Header.Set("Content-Type", serve.ContentTypeBinary)
	req.Header.Set("Accept", serve.ContentTypeBinary)
	resp, err := client.Do(req)
	if err != nil {
		return served{}, false
	}
	d, err := serve.DecodeBinaryDecision(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return served{}, false
	}
	return served{gen: d.Generation, label: d.Landmark, lat: time.Since(t0)}, true
}

// latencyQuantiles returns the recorded latencies' quantiles ps, in
// microseconds (0 when nothing was recorded).
func latencyQuantiles(recs []served, ps ...float64) []float64 {
	lats := make([]time.Duration, len(recs))
	for i, r := range recs {
		lats[i] = r.lat
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	out := make([]float64, len(ps))
	if len(lats) == 0 {
		return out
	}
	for i, p := range ps {
		out[i] = float64(lats[int(p*float64(len(lats)-1))].Nanoseconds()) / 1e3
	}
	return out
}

// MergeIntoBench folds one report section into the BENCH trajectory file
// at path: set writes the section, and every other section of an
// existing file is kept. A missing file starts from an empty report; a
// file that is not a bench report is an error and is left untouched.
func MergeIntoBench(path string, set func(*BenchReport)) error {
	var rep BenchReport
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("existing %s is not a bench report: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	set(&rep)
	data, err := rep.BenchJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
