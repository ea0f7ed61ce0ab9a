package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every method must be a no-op on nil receivers — the disabled path
	// relies on it.
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Start("x") != nil || tr.StartForced("x") != nil || tr.Join("x", 7) != nil {
		t.Fatal("nil tracer started a trace")
	}
	tr.Finish(nil)
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer stats: %+v", s)
	}
	if got := tr.Snapshot(10); len(got) != 0 {
		t.Fatalf("nil tracer snapshot: %v", got)
	}
	var tc *Trace
	tc.SetBenchmark("sort")
	tc.SetError(nil)
	tc.Span("x", time.Now())
	tc.Event("x")
	if tc.ID() != 0 || tc.Site() != "" {
		t.Fatal("nil trace has identity")
	}
	if !tc.Now().IsZero() {
		t.Fatal("nil trace read the clock")
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Options{SampleEvery: 4})
	var sampled int
	for i := 0; i < 40; i++ {
		if tc := tr.Start("serve"); tc != nil {
			sampled++
			tr.Finish(tc)
		}
	}
	if sampled != 10 {
		t.Fatalf("sample-every-4 over 40 requests traced %d, want 10", sampled)
	}
	st := tr.Stats()
	if st.Requests != 40 || st.Sampled != 10 || st.Finished != 10 {
		t.Fatalf("stats: %+v", st)
	}

	// SampleEvery 0 disables Start entirely but Join still records.
	off := New(Options{SampleEvery: 0})
	if off.Start("serve") != nil {
		t.Fatal("disabled tracer sampled a request")
	}
	if off.Join("serve", 99) == nil {
		t.Fatal("disabled tracer refused a joined trace")
	}
	if off.Join("serve", 0) != nil {
		t.Fatal("joined a zero trace ID")
	}
}

// TestDisabledPathAllocations pins the zero-allocation guarantee the
// serving path depends on: with sampling off (or no tracer at all), one
// Start+method-calls+Finish round costs nothing.
func TestDisabledPathAllocations(t *testing.T) {
	off := New(Options{SampleEvery: 0})
	var nilTr *Tracer
	for name, tr := range map[string]*Tracer{"sample-zero": off, "nil": nilTr} {
		allocs := testing.AllocsPerRun(100, func() {
			tc := tr.Start("serve")
			tc.SetBenchmark("sort")
			tc.Span("decode", tc.Now())
			tc.Event("cache_hit")
			tr.Finish(tc)
		})
		if allocs != 0 {
			t.Errorf("%s tracer: %v allocs per untraced request, want 0", name, allocs)
		}
	}
}

func TestRingOverwriteAndSlowest(t *testing.T) {
	tr := New(Options{SampleEvery: 1, RingSize: 4, SlowestN: 2})
	// One deliberately slow trace, then enough fast ones to overwrite the
	// whole ring: the slow exemplar must survive via the slowest-N pin.
	slow := tr.Start("serve")
	slow.SetBenchmark("slowest")
	time.Sleep(5 * time.Millisecond)
	tr.Finish(slow)
	slowID := slow.ID()
	for i := 0; i < 16; i++ {
		tr.Finish(tr.Start("serve"))
	}
	found := false
	for _, ex := range tr.Exemplars() {
		if ex.TraceID == FormatID(slowID) {
			found = true
			if ex.Benchmark != "slowest" {
				t.Fatalf("exemplar benchmark: %q", ex.Benchmark)
			}
		}
	}
	if !found {
		t.Fatal("slow trace evicted from exemplars by ring overwrite")
	}
	if got := len(tr.Snapshot(100)); got > 4+2 {
		t.Fatalf("snapshot returned %d traces from a 4-ring", got)
	}
}

func TestMergeAcrossSites(t *testing.T) {
	tr := New(Options{SampleEvery: 1})
	router := tr.Start("router")
	router.SetBenchmark("sort")
	router.Span("route", router.Now())
	id := router.ID()

	replica := tr.Join("replica-1", id)
	replica.Span("classify", replica.Now())
	tr.Finish(replica)
	tr.Finish(router)

	var merged *TraceView
	for _, v := range tr.Snapshot(10) {
		if v.ID == FormatID(id) {
			v := v
			merged = &v
		}
	}
	if merged == nil {
		t.Fatal("merged trace not in snapshot")
	}
	if merged.Benchmark != "sort" {
		t.Fatalf("benchmark: %q", merged.Benchmark)
	}
	if len(merged.Sites) != 2 || merged.Sites[0] != "replica-1" || merged.Sites[1] != "router" {
		t.Fatalf("sites: %v", merged.Sites)
	}
	bySite := map[string]int{}
	for _, sp := range merged.Spans {
		bySite[sp.Site]++
	}
	if bySite["router"] != 1 || bySite["replica-1"] != 1 {
		t.Fatalf("span sites: %v", bySite)
	}
}

func TestIDFormatParse(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex chars", id, s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(FormatID(%d)) = %d, %v", id, back, ok)
		}
	}
	for _, bad := range []string{"", "zz", strings.Repeat("f", 17), "0000000000000000"} {
		if _, ok := ParseID(bad); ok {
			t.Fatalf("ParseID accepted %q", bad)
		}
	}
}

func TestHandlerJSON(t *testing.T) {
	tr := New(Options{SampleEvery: 1})
	tc := tr.Start("serve")
	tc.SetBenchmark("sort")
	tc.Span("classify", tc.Now())
	tr.Finish(tc)

	h := Handler(tr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var page struct {
		Stats  Stats       `json:"stats"`
		Recent []TraceView `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.String())
	}
	if page.Stats.Sampled != 1 || len(page.Recent) != 1 {
		t.Fatalf("page: %s", rec.Body.String())
	}
	if page.Recent[0].Benchmark != "sort" || len(page.Recent[0].Spans) != 1 {
		t.Fatalf("recent[0]: %+v", page.Recent[0])
	}
}
