package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"parsge"
)

// tinyConfig shrinks a workload until it runs in seconds while every
// percentile still has ten samples beyond it.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	c, err := defaults(workload)
	if err != nil {
		t.Fatal(err)
	}
	c.Seed, c.Trace, c.Setups = 7, trace, 1
	switch workload {
	case "solve-dense":
		c.Scale, c.Seconds = 0.005, 0.1
	case "serve-cold-sparse":
		c.Scale, c.Patterns, c.Seconds, c.OpenRate = 0.01, 500, 0.1, 20000
	case "serve-hot-mutating":
		c.Scale, c.Pool, c.ListLen, c.Passes, c.Seconds, c.OpenShare, c.OpenRate = 0.01, 2, 500, 1, 2.1, 1, 10000
	}
	return c
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and asserts the result line carries every metric of the mode's table
// with its unit and nothing else.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"solve-dense", "serve-cold-sparse", "serve-hot-mutating"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				var out bytes.Buffer
				rep, err := runConfig(context.Background(), tinyConfig(t, w, trace), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d", rep.Correct, rep.Attempted)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(rep.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, table has %d", len(rep.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := rep.Metrics[s.Name]
					if !ok || v.Unit != s.Unit {
						t.Errorf("metric %s: printed=%v unit %q, want %q", s.Name, ok, v.Unit, s.Unit)
					}
				}
				if !trace {
					for name, v := range rep.Metrics {
						if v.Value == 0 {
							t.Errorf("end-to-end metric %s reads 0", name)
						}
					}
				}
			})
		}
	}
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile
// exists only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false}} {
		if _, ok := percentile(xs(tc.n), tc.q); ok != tc.want {
			t.Errorf("percentile of %d samples at %v: ok=%v, want %v", tc.n, tc.q, ok, tc.want)
		}
	}
	m := newMetrics(perLayer)
	m.setPct("update.apply_p99_ms", xs(999), 0.99)
	if _, ok := m.values["update.apply_p99_ms"]; ok {
		t.Error("update.apply_p99_ms printed from 999 samples")
	}
	if err := m.complete(); err == nil || !strings.Contains(err.Error(), "update.apply_p99_ms") {
		t.Errorf("complete() = %v, want it to name update.apply_p99_ms", err)
	}
	// The phase lines follow the same rule.
	var tl tally
	tl.tails(xs(999), xs(1000))
	if tl.LatP99MS != 0 || tl.UpdateP99MS != 990 {
		t.Errorf("phase p99s from 999 and 1000 samples = %v, %v; want 0 (left out) and 990", tl.LatP99MS, tl.UpdateP99MS)
	}
}

// fakeSession points a session's client at handler, with one request
// whose reference count is 5 and every end-to-end metric already set.
func fakeSession(t *testing.T, handler http.HandlerFunc) (*session, *env) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	e := &env{cfg: config{Workload: "serve-cold-sparse"}, nproc: 2, e2e: newMetrics(endToEnd), layer: newMetrics(perLayer), out: &bytes.Buffer{}}
	c := &serveCorpus{names: []string{"t0"}, graphs: []*parsge.Graph{nil}, edges: [][]edge{nil}}
	if err := c.addReq(serveReq{refs: []int64{5}}, "iso"); err != nil {
		t.Fatal(err)
	}
	for _, s := range endToEnd {
		e.e2e.set(s.Name, 1)
	}
	return &session{e: e, c: c, url: srv.URL, hc: srv.Client(), updMu: make([]sync.Mutex, 1), updCount: make([]int, 1)}, e
}

// TestRefusalAndWrongCountFail asserts a 429 and a wrong count each
// count as failed, and that a wrong count fails the run.
func TestRefusalAndWrongCountFail(t *testing.T) {
	s, e := fakeSession(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"predicted explosive"}`, http.StatusTooManyRequests)
	})
	tl := e.phase("open")
	tl.add(s.exec(context.Background(), 0, op{kind: opQuery}).oc)
	if tl.Failed != 1 || tl.Refused429 != 1 || tl.OK != 0 {
		t.Errorf("429: %+v, want one failed refusal", *tl)
	}
	if rep, err := e.finish(); err != nil || !rep.Correct || rep.Attempted != 1 || rep.Failed != 0 {
		t.Errorf("429 run: %+v, err %v; want a correct run with the refusal left to served_frac", rep, err)
	}

	s, e = fakeSession(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"matches":4,"epoch":0}`)
	})
	tl = e.phase("open")
	tl.add(s.exec(context.Background(), 0, op{kind: opQuery}).oc)
	if tl.Failed != 1 || tl.Wrong != 1 {
		t.Errorf("wrong count: %+v, want one failed wrong answer", *tl)
	}
	rep, err := e.finish()
	if err == nil || rep.Correct || rep.Failed != 1 {
		t.Errorf("wrong-count run: correct=%v failed=%d err=%v, want an error", rep.Correct, rep.Failed, err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := defaults(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, tables %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, s := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != s.Name || j.Unit != s.Unit || j.Better != s.Better || j.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, j, s)
		}
	}
	for i, s := range perLayer {
		j := b.PerLayer[i]
		if j.Name != s.Name || j.Unit != s.Unit || j.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, j, s)
		}
	}
}

// TestCalibration checks that chunkedCPU calibrates after every chunk
// and that the run's speed is calibRefMS over the median calibration.
func TestCalibration(t *testing.T) {
	cal, err := newCalibKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	e := &env{cal: cal}
	var chunks [][2]int
	e.chunkedCPU(10, 4, func(from, to int) { chunks = append(chunks, [2]int{from, to}) })
	if want := [][2]int{{0, 4}, {4, 8}, {8, 10}}; fmt.Sprint(chunks) != fmt.Sprint(want) || len(e.calibs) != 3 {
		t.Errorf("chunks %v with %d calibrations, want %v with 3", chunks, len(e.calibs), want)
	}
	for _, c := range e.calibs {
		if c <= 0 {
			t.Errorf("calibration took %v ms", c)
		}
	}
	e.calibs = []float64{calibRefMS * 4, calibRefMS, calibRefMS * 2}
	if got := e.speed(); got != 0.5 {
		t.Errorf("speed = %v, want 0.5", got)
	}
}

// TestSelfTime checks span self time subtracts the union of children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "http", Req: 1, Parent: -1, Start: 0, End: 10 * time.Millisecond},
		{Name: "a", Req: 1, Parent: 0, Start: 1 * time.Millisecond, End: 4 * time.Millisecond},
		{Name: "b", Req: 1, Parent: 0, Start: 3 * time.Millisecond, End: 5 * time.Millisecond},
		{Name: "c", Req: 1, Parent: 0, Start: 8 * time.Millisecond, End: 12 * time.Millisecond},
	}}
	if got := tr.selfMS("http")[1]; got != 4 {
		t.Errorf("self time %v ms, want 4", got)
	}
}
