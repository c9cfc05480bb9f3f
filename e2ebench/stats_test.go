package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{200, 0.95, true}, {199, 0.95, false},
		{20, 0.5, true}, {3, 0.5, false}, {3, 0.99, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}

	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	if got := d.quantile(0.5); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if got := d.quantile(0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}

	// A handful of plans reports a median but no p99.
	var plans dist
	for _, s := range []float64{8.1, 8.3, 8.2} {
		plans.add(s)
	}
	var r report
	r.median("latency_p50_ms", "ms", &plans)
	r.tail("latency_p99_ms", "ms", &plans, 0.99)
	if _, ok := r.get("latency_p50_ms"); !ok {
		t.Error("median of 3 samples left out")
	}
	if _, ok := r.get("latency_p99_ms"); ok {
		t.Error("p99 of 3 samples reported")
	}
	for i := range 997 {
		plans.add(float64(i))
	}
	r = nil
	r.tail("latency_p99_ms", "ms", &plans, 0.99)
	if _, ok := r.get("latency_p99_ms"); !ok {
		t.Error("p99 of 1000 samples left out")
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var a tally
	for range 10 {
		a.attempt()
	}
	for range 6 {
		a.ok()
	}
	a.fail("submit answered 429")
	a.fail("ended status failed: activity PSF preconditions unmet")
	a.fail("ended with the goal unmet")
	if got := a.failed(); got != 3 {
		t.Fatalf("failed = %d, want 3", got)
	}
	if a.unresolved() != 1 || a.correct() {
		t.Fatalf("an unresolved attempt must make the run incorrect (unresolved %d)", a.unresolved())
	}
	a.lose("stuck: not terminal after 30s")
	if a.unresolved() != 0 {
		t.Fatalf("unresolved = %d, want 0", a.unresolved())
	}
	if got := a.errorRate(); got != 0.4 {
		t.Fatalf("error rate = %v, want 4/10", got)
	}
	if a.correct() {
		t.Fatal("a lost or stuck operation must make the run incorrect")
	}

	// Failures the program reports truthfully keep the run correct; a
	// wrong output does not.
	var b tally
	b.attempt()
	b.attempt()
	b.ok()
	b.fail("ended status failed: x")
	if !b.correct() {
		t.Fatal("a reported failure made the run incorrect")
	}
	b.attempt()
	b.wrong("plan differs from the seed-1 reference")
	if b.correct() {
		t.Fatal("a wrong output left the run correct")
	}

	var m tally
	m.merge(&a)
	m.merge(&b)
	if m.attempted != 13 || m.succeeded != 7 || m.failed() != 6 || m.wrongOutputs != 1 {
		t.Fatalf("merged tally %+v", m)
	}
}

func TestSetupCoversBuildUntilReady(t *testing.T) {
	const buildTime = 30 * time.Millisecond
	var probes atomic.Int32
	var readyAt atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if probes.Add(1) < 4 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		readyAt.Store(time.Now().UnixNano())
	}))
	defer srv.Close()

	start := time.Now()
	d, got, err := timeSetup(context.Background(), srv.Client(), func() (string, string, error) {
		time.Sleep(buildTime)
		return "built", srv.URL, nil
	})
	if err != nil || got != "built" {
		t.Fatalf("timeSetup = %q, %v", got, err)
	}
	if probes.Load() != 4 {
		t.Fatalf("readyz probed %d times, want until the first 200 (4)", probes.Load())
	}
	ready := time.Unix(0, readyAt.Load())
	if d < buildTime || d < ready.Sub(start) {
		t.Fatalf("set-up %v ends before the build (%v) or before readyz answered 200 (%v)", d, buildTime, ready.Sub(start))
	}
	if d > time.Since(start) {
		t.Fatalf("set-up %v is longer than the call", d)
	}

	boom := errors.New("boom")
	if _, _, err := timeSetup(context.Background(), srv.Client(), func() (string, string, error) {
		return "", "", boom
	}); !errors.Is(err, boom) {
		t.Fatalf("build error = %v, want boom", err)
	}
}

// TestMissedEventsFallBackToPolling runs a closed loop against a server
// whose event stream never delivers: every operation must still resolve,
// through a bounded number of GETs.
func TestMissedEventsFallBackToPolling(t *testing.T) {
	var gets atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/api/v1/events":
			w.Header().Set("Content-Type", "text/event-stream")
			w.Write([]byte(": stream opened\n\n"))
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
		default:
			status := "running"
			if gets.Add(1)%3 == 0 {
				status = "succeeded"
			}
			json.NewEncoder(w).Encode(map[string]any{"status": status, "completed": true, "goalFitness": 1})
		}
	}))
	defer srv.Close()

	wl := &workload{
		name: "test", window: 2,
		res: resource{path: "/api/v1/tasks", kind: "task",
			firstCheck: time.Millisecond, maxCheck: 4 * time.Millisecond, stuckAfter: 5 * time.Second},
		body:  func(id, _ string) ([]byte, error) { return []byte(`{}`), nil },
		check: func(*view) (bool, string, bool) { return true, "", false },
	}
	w, err := startWatcher(srv.Client(), srv.URL, "task")
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	start := time.Now()
	rec := &recorder{}
	c := &client{
		wl: wl, hc: srv.Client(), base: srv.URL, w: w, rec: rec,
		start: start, measure: start, stop: start.Add(100 * time.Millisecond),
		ids: newIDSource(1, "t"),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.run(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client hung on missed events")
	}
	if rec.tally.attempted == 0 || rec.tally.succeeded != rec.tally.attempted {
		t.Fatalf("tally %+v: every operation should succeed by polling", rec.tally)
	}
	if perOp := float64(rec.requests) / float64(rec.tally.attempted); perOp > 5 {
		t.Fatalf("%.1f requests per operation, want at most 5", perOp)
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the last
// output line draws from in step with BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []declared) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ne2ebench       %v", kind, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEndNames)
	same("per_layer", b.PerLayer, perLayerNames)
}
