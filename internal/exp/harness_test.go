package exp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"inputtune/internal/serve"
)

// TestDrive pins the closed-loop driver's bookkeeping against a stub
// server whose answer encodes which body it was sent: every request index
// 0..n-1 is either recorded once or counted failed, request j sends
// bodies[j%len(bodies)], non-200 answers are failures even when their
// body decodes, and the done counter ends at n.
func TestDrive(t *testing.T) {
	cases := []struct {
		name       string
		n, clients int
		bodies     int
		failEvery  int // body b answers 500 when b%failEvery == 0 (0 = never)
		closed     bool
	}{
		{name: "n not divisible by clients", n: 10, clients: 3, bodies: 4},
		{name: "clients > n", n: 3, clients: 8, bodies: 3},
		{name: "n = 0", n: 0, clients: 4, bodies: 2},
		{name: "500 for some indices", n: 20, clients: 4, bodies: 20, failEvery: 3},
		{name: "closed server", n: 7, clients: 2, bodies: 7, closed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				data, _ := io.ReadAll(r.Body)
				b, err := strconv.Atoi(string(data))
				if err != nil || r.URL.Path != "/v1/classify" || r.Header.Get("Accept") != serve.ContentTypeBinary {
					http.Error(w, "bad request", http.StatusBadRequest)
					return
				}
				w.Header().Set("Content-Type", serve.ContentTypeBinary)
				if tc.failEvery > 0 && b%tc.failEvery == 0 {
					// A well-formed frame behind a 500 must still count as
					// failed: the driver checks the status, not only the body.
					w.WriteHeader(http.StatusInternalServerError)
				}
				w.Write(serve.AppendBinaryDecision(nil, &serve.Decision{Benchmark: "stub", Generation: 1, Landmark: b}))
			}))
			defer srv.Close()
			client := srv.Client()
			client.Timeout = 10 * time.Second
			if tc.closed {
				srv.Close()
			}
			bodies := make([][]byte, tc.bodies)
			for i := range bodies {
				bodies[i] = []byte(strconv.Itoa(i))
			}

			var done atomic.Uint64
			recs, failed := drive(client, srv.URL, bodies, tc.n, tc.clients, &done)

			seen := make([]bool, tc.n)
			for _, r := range recs {
				if r.idx < 0 || r.idx >= tc.n || seen[r.idx] {
					t.Fatalf("index %d out of range or recorded twice", r.idx)
				}
				seen[r.idx] = true
				if want := r.idx % tc.bodies; r.label != want || r.gen != 1 {
					t.Fatalf("request %d answered (gen %d, label %d), want body %d", r.idx, r.gen, r.label, want)
				}
				if r.lat <= 0 {
					t.Fatalf("request %d: latency %v", r.idx, r.lat)
				}
			}
			wantFailed := 0
			for j := 0; j < tc.n; j++ {
				b := j % tc.bodies
				shouldFail := tc.closed || (tc.failEvery > 0 && b%tc.failEvery == 0)
				if shouldFail {
					wantFailed++
				}
				if seen[j] == shouldFail {
					t.Fatalf("request %d: recorded %v, want failed %v", j, seen[j], shouldFail)
				}
			}
			if failed != wantFailed || len(recs)+failed != tc.n {
				t.Fatalf("%d recorded + %d failed, want %d failed of %d", len(recs), failed, wantFailed, tc.n)
			}
			if got := done.Load(); got != uint64(tc.n) {
				t.Fatalf("done counter %d, want %d", got, tc.n)
			}
		})
	}
}

func TestLatencyQuantiles(t *testing.T) {
	if q := latencyQuantiles(nil, 0.5, 0.99); q[0] != 0 || q[1] != 0 {
		t.Fatalf("empty quantiles %v", q)
	}
	var recs []served
	for _, us := range []int{5, 1, 4, 2, 3} {
		recs = append(recs, served{lat: time.Duration(us) * time.Microsecond})
	}
	if q := latencyQuantiles(recs, 0, 0.5, 1); q[0] != 1 || q[1] != 3 || q[2] != 5 {
		t.Fatalf("quantiles %v, want [1 3 5]", q)
	}
}

// TestRunClusterBenchSmoke drives train → serve → verify end to end at a
// tiny scale: a 1-replica baseline and a 2-replica fleet that loses a
// replica mid-run. Every request must succeed with the offline label.
func TestRunClusterBenchSmoke(t *testing.T) {
	rep, err := RunClusterBench(ClusterBenchOptions{
		Replicas: []int{1, 2},
		Requests: 64,
		Scale:    tinyScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 2 || rep.Clients != defaultClients || !rep.KillInjected || rep.QuantizeBits != shardQuantizeBits {
		t.Fatalf("report shape off: %+v", rep)
	}
	for _, arm := range rep.Arms {
		if arm.Requests != 64 || arm.FailedRequests != 0 || arm.LabelMismatches != 0 {
			t.Fatalf("%d-replica arm: %d requests, %d failed, %d mismatched",
				arm.Replicas, arm.Requests, arm.FailedRequests, arm.LabelMismatches)
		}
		if wantKills := arm.Replicas - 1; arm.Kills != wantKills {
			t.Fatalf("%d-replica arm: %d kills, want %d", arm.Replicas, arm.Kills, wantKills)
		}
		if arm.P50Micros <= 0 || arm.P99Micros < arm.P50Micros {
			t.Fatalf("%d-replica arm: latency p50 %v p99 %v", arm.Replicas, arm.P50Micros, arm.P99Micros)
		}
	}
	if rep.Failed() {
		t.Fatal("Failed() on a clean report")
	}
	if out := RenderClusterBench(rep); out == "" {
		t.Fatal("empty render")
	}
}

func TestMergeIntoBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	read := func() BenchReport {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep BenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// A missing file starts from an empty report.
	fleetSec := FleetBenchReport{Case: "sort2", Clients: 2, Arms: []FleetArmResult{{Replicas: 1, Requests: 10}}}
	if err := MergeIntoBench(path, func(r *BenchReport) { r.Fleet = &fleetSec }); err != nil {
		t.Fatal(err)
	}
	if got := read(); got.Fleet == nil || got.Fleet.Case != "sort2" || len(got.Results) != 0 {
		t.Fatalf("fresh merge: %+v", got)
	}

	// Merging a section keeps every other one.
	existing := BenchReport{Scale: "quick", Seed: 42,
		Results: []BenchResult{{Benchmark: "sort1", WallSeconds: 1}}, Fleet: &fleetSec}
	data, _ := existing.BenchJSON()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	driftSec := DriftBenchReport{Benchmark: "sort", Clients: 8}
	if err := MergeIntoBench(path, func(r *BenchReport) { r.Drift = &driftSec }); err != nil {
		t.Fatal(err)
	}
	merged := read()
	if merged.Scale != "quick" || merged.Seed != 42 || len(merged.Results) != 1 || merged.Results[0].Benchmark != "sort1" {
		t.Fatalf("merge clobbered training results: %+v", merged)
	}
	if merged.Fleet == nil || merged.Fleet.Clients != 2 || len(merged.Fleet.Arms) != 1 {
		t.Fatalf("merge lost the fleet section: %+v", merged.Fleet)
	}
	if merged.Drift == nil || merged.Drift.Clients != 8 {
		t.Fatalf("merge lost the drift section: %+v", merged.Drift)
	}

	// A non-bench file is rejected and left as it was.
	badPath := filepath.Join(dir, "notbench.json")
	if err := os.WriteFile(badPath, []byte("[1,2,3]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MergeIntoBench(badPath, func(r *BenchReport) { r.Drift = &driftSec }); err == nil {
		t.Fatal("merged into a non-bench file")
	}
	if got, _ := os.ReadFile(badPath); string(got) != "[1,2,3]" {
		t.Fatalf("non-bench file rewritten: %q", got)
	}
}
