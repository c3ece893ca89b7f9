package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parsge"
	"parsge/internal/graphio"
	"parsge/internal/service"
)

// This file holds what the two serving workloads share: the corpus with
// its reference counts, an in-process HTTP server over a service.Router,
// a client limited to nproc connections, and the closed- and open-loop
// drivers.

const (
	// corpusSeed generates every workload's fixed input — the graphs,
	// the paper patterns, the hot pattern pools and the update edges —
	// as the paper's collections are fixed; --seed generates the traffic
	// over it: request order, the pattern, semantics and reply mode of
	// each slot, and the steal engine's seed. What a generated corpus
	// costs varies from one corpus to the next by more than any bound a
	// benchmark can hold: on the dense collections a few hard instances
	// dominate, and which exist changes by more than 10x, and in the hot
	// workload the mutating target's pool sets the tail. Every instance
	// of this corpus finishes well within its budget.
	corpusSeed = 1
	// updateEdges is how many distinct edges each target's updates
	// cycle through; a target's graph versions are its base graph and
	// the base plus one of these edges.
	updateEdges = 4
	// statsScrapes is how many back-to-back statistics reads time the
	// stats layer after the traced phase.
	statsScrapes = 25
	// explosiveBudget is the server's explosive budget and default query
	// timeout, set explicitly because the false-shed check runs each
	// shed query within it.
	explosiveBudget = 30 * time.Second
	// refBudget bounds every reference run; one that hits it fails the
	// set-up, since every answer is checked. It is longer than
	// explosiveBudget so that a query the server is right to shed can
	// still be in the corpus.
	refBudget = 2 * explosiveBudget
)

// edge is one undirected edge, updated as its two arcs in one batch.
type edge [2]int32

// pickEdges draws k distinct node pairs that are not adjacent in g.
func pickEdges(rng *rand.Rand, g *parsge.Graph, k int) []edge {
	n := g.NumNodes()
	var out []edge
	seen := make(map[edge]bool)
	for tries := 0; len(out) < k && tries < 100*k; tries++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || g.HasEdge(v, u) || seen[edge{u, v}] {
			continue
		}
		seen[edge{u, v}] = true
		out = append(out, edge{u, v})
	}
	return out
}

// updateBatch is a target's j-th update batch: even j adds edge j/2
// (cycling through edges), odd j removes it again, so the graph
// oscillates around its base as the loadgen updater's does.
func updateBatch(edges []edge, j int) []parsge.EdgeUpdate {
	e := edges[(j/2)%len(edges)]
	rm := j%2 == 1
	return []parsge.EdgeUpdate{{From: e[0], To: e[1], Remove: rm}, {From: e[1], To: e[0], Remove: rm}}
}

// versionOf maps a target's epoch to the graph version it serves: 0 is
// the base graph, 1+k the base plus edge k; -1 when the target has no
// update edges.
func versionOf(epoch uint64, nEdges int) int {
	if epoch%2 == 0 {
		return 0
	}
	if nEdges == 0 {
		return -1
	}
	return 1 + int((epoch-1)/2)%nEdges
}

// decimalTable pre-interns the decimal spelling of every node label of
// graphs in identity order ("1" → 1, ...), as sgeserve -collection does
// for generated targets; without it, pattern labels read back through
// the table would get fresh ids and most patterns would turn
// unsatisfiable.
func decimalTable(graphs []*parsge.Graph) *graphio.LabelTable {
	top := 0
	for _, g := range graphs {
		top = max(top, int(g.MaxNodeLabel()))
	}
	table := graphio.NewLabelTable()
	for l := 1; l <= top; l++ {
		table.Intern(strconv.Itoa(l))
	}
	return table
}

func patternText(name string, g *parsge.Graph, table *graphio.LabelTable) (string, error) {
	var b bytes.Buffer
	err := graphio.Write(&b, name, g, table)
	return b.String(), err
}

// reference counts pattern exactly on twin with the sequential engine.
func reference(ctx context.Context, twin *parsge.Target, p *parsge.Graph, sem parsge.Semantics) (parsge.Result, error) {
	r, err := twin.Enumerate(ctx, p, parsge.Options{
		Algorithm: parsge.Auto, Workers: 1, Semantics: sem, Timeout: refBudget,
	})
	if err == nil && r.TimedOut {
		err = errTimedOut
	}
	return r, err
}

var serveSems = []struct {
	name string
	sem  parsge.Semantics
}{{"iso", parsge.SubgraphIso}, {"induced", parsge.InducedIso}, {"hom", parsge.Homomorphism}}

type mode uint8

const (
	modeCount mode = iota
	modeMappings
	modeStream
)

// serveReq is one distinct query: a pattern under one semantics against
// one target, with its reference count per graph version of the target.
type serveReq struct {
	target  int
	sem     parsge.Semantics
	text    string
	pattern *parsge.Graph // what text encodes, as the references ran it
	refs    []int64
	unsat   bool      // the base-version reference proved zero matches
	bodies  [3][]byte // the request body per mode
}

// serveCorpus is a serving workload's fixed input: the targets, their
// update edges and the distinct queries.
type serveCorpus struct {
	graphs []*parsge.Graph
	names  []string
	// versions holds, per target, a twin per graph version (0 = the
	// base) for the traced run's direct calls; nil when untraced.
	versions [][]*parsge.Target
	edges    [][]edge
	reqs     []serveReq
	table    *graphio.LabelTable
}

func newCorpus(graphs []*parsge.Graph) *serveCorpus {
	c := &serveCorpus{graphs: graphs, table: decimalTable(graphs)}
	for i := range graphs {
		c.names = append(c.names, fmt.Sprintf("t%d", i))
	}
	return c
}

// addReq appends a query and encodes its bodies.
func (c *serveCorpus) addReq(r serveReq, semName string) error {
	for m := range r.bodies {
		body, err := json.Marshal(map[string]any{
			"pattern":   r.text,
			"semantics": semName,
			"mappings":  mode(m) == modeMappings,
			"stream":    mode(m) == modeStream,
		})
		if err != nil {
			return err
		}
		r.bodies[m] = body
	}
	c.reqs = append(c.reqs, r)
	return nil
}

// serveState is a serving workload's setup: the corpus and the server
// the measurement starts on.
type serveState struct {
	c *serveCorpus
	s *session
}

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
	opScrape
)

// op is one entry of a request list.
type op struct {
	kind   opKind
	mode   mode
	target int32
	req    int32 // index into serveCorpus.reqs (queries)
}

// result is one executed op.
type result struct {
	op      op
	oc      outcome
	lat     float64 // ms, from when the request was issued
	rep     reply
	replied bool // a 200 reply was decoded
	ver     int  // a refused query: the target's graph version when the refusal came back
}

// reply is the subset of the query, stream-terminal and update replies
// the benchmark checks and attributes.
type reply struct {
	Matches       int64     `json:"matches"`
	Epoch         uint64    `json:"epoch"`
	Truncated     bool      `json:"truncated"`
	Unsatisfiable bool      `json:"unsatisfiable"`
	CacheHit      bool      `json:"cache_hit"`
	Shared        bool      `json:"shared"`
	QueueWaitMS   float64   `json:"queue_wait_ms"`
	PreprocMS     float64   `json:"preproc_ms"`
	MatchMS       float64   `json:"match_ms"`
	ElapsedMS     float64   `json:"elapsed_ms"`
	Mappings      [][]int32 `json:"mappings"`
	Done          bool      `json:"done"`
	Error         string    `json:"error"`
	lines         int64     // stream: mapping lines received
}

// Span context travels to the server in these headers.
const (
	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

// session is one server with its client: a service.Router over the
// corpus targets behind net/http on a loopback port, and an HTTP client
// limited to nproc connections. The server only ever sees the generated
// graphs and request bodies.
type session struct {
	e      *env
	c      *serveCorpus
	router *service.Router
	srv    *http.Server
	served chan error
	url    string
	hc     *http.Client
	tr     atomic.Pointer[tracer]

	// Updates to one target are issued in order, one at a time, so a
	// target's epoch always names one known graph version.
	updMu    []sync.Mutex
	updCount []int
}

func newSession(e *env, c *serveCorpus) (*session, error) {
	router := service.NewRouter(service.RouterConfig{
		QueueTimeout:    2 * time.Second,
		DefaultTimeout:  explosiveBudget,
		ExplosiveBudget: explosiveBudget,
	})
	for i, g := range c.graphs {
		if err := router.AddTarget(c.names[i], g, parsge.TargetOptions{}); err != nil {
			return nil, err
		}
	}
	s := &session{
		e: e, c: c, router: router, served: make(chan error, 1),
		updMu: make([]sync.Mutex, len(c.graphs)), updCount: make([]int, len(c.graphs)),
	}
	h := service.NewRouterServer(router, decimalTable(c.graphs))
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin("service.handler", req, int32(parent))
		h.ServeHTTP(w, r)
		tr.finish(id)
	}), ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	go func() { s.served <- s.srv.Serve(ln) }()
	s.hc = &http.Client{Timeout: 2 * explosiveBudget, Transport: &http.Transport{
		MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true,
	}}
	return s, nil
}

// close shuts the server down, waits for it, and drains the router.
func (s *session) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hc.CloseIdleConnections()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
	_ = s.router.Close(ctx) // in-flight work already ended with the HTTP server
}

// do sends one request inside an "http" span and decodes a 200 reply
// (an NDJSON stream into a *reply when stream is set) into into.
func (s *session) do(ctx context.Context, method, path string, body []byte, id int64, stream bool, into any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	tr := s.tr.Load()
	span := tr.begin("http", id, -1)
	defer tr.finish(span)
	if span >= 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body) // let the connection be reused
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	dec := json.NewDecoder(resp.Body)
	if !stream {
		return resp.StatusCode, dec.Decode(into)
	}
	rep := into.(*reply)
	for {
		var line reply
		if err := dec.Decode(&line); err != nil {
			return resp.StatusCode, fmt.Errorf("stream ended without its terminal line: %w", err)
		}
		if line.Done {
			line.lines = rep.lines
			*rep = line
			return resp.StatusCode, nil
		}
		rep.lines++
	}
}

// exec runs one op as request id.
func (s *session) exec(ctx context.Context, id int64, o op) result {
	switch o.kind {
	case opUpdate:
		return s.update(ctx, id, o)
	case opScrape:
		var body json.RawMessage // an operator downloads it; the benchmark does not parse it
		code, err := s.do(ctx, http.MethodGet, "/stats", nil, id, false, &body)
		return result{op: o, oc: s.check(code, err, func() error {
			if len(body) == 0 || body[0] != '{' {
				return fmt.Errorf("/stats returned %d bytes, not a JSON object", len(body))
			}
			return nil
		})}
	}
	rq := &s.c.reqs[o.req]
	var rep reply
	code, err := s.do(ctx, http.MethodPost, "/targets/"+s.c.names[o.target]+"/query", rq.bodies[o.mode], id, o.mode == modeStream, &rep)
	oc := s.check(code, err, func() error {
		if rep.Truncated || rep.Error != "" {
			return errTruncated
		}
		v := versionOf(rep.Epoch, len(s.c.edges[o.target]))
		if v < 0 || v >= len(rq.refs) {
			return fmt.Errorf("target %s request %d: no reference for epoch %d", s.c.names[o.target], o.req, rep.Epoch)
		}
		want := rq.refs[v]
		switch {
		case rep.Matches != want:
			return fmt.Errorf("target %s request %d epoch %d: %d matches, reference %d", s.c.names[o.target], o.req, rep.Epoch, rep.Matches, want)
		case o.mode == modeMappings && int64(len(rep.Mappings)) != want:
			return fmt.Errorf("target %s request %d: %d mappings, reference %d", s.c.names[o.target], o.req, len(rep.Mappings), want)
		case o.mode == modeStream && rep.lines != want:
			return fmt.Errorf("target %s request %d: %d streamed matches, reference %d", s.c.names[o.target], o.req, rep.lines, want)
		}
		return nil
	})
	rep.Mappings = nil // checked; do not keep them alive
	res := result{op: o, oc: oc, rep: rep, replied: code == http.StatusOK && err == nil}
	if oc == outRefused {
		s.updMu[o.target].Lock()
		res.ver = versionOf(uint64(s.updCount[o.target]), len(s.c.edges[o.target]))
		s.updMu[o.target].Unlock()
	}
	return res
}

// update sends the target's next batch, in order with its other
// updates, and checks the epoch it produced.
func (s *session) update(ctx context.Context, id int64, o op) result {
	t := o.target
	s.updMu[t].Lock()
	defer s.updMu[t].Unlock()
	j := s.updCount[t]
	type arc struct {
		From   int32 `json:"from"`
		To     int32 `json:"to"`
		Remove bool  `json:"remove,omitempty"`
	}
	var arcs []arc
	for _, u := range updateBatch(s.c.edges[t], j) {
		arcs = append(arcs, arc{u.From, u.To, u.Remove})
	}
	body, _ := json.Marshal(map[string]any{"updates": arcs})
	var rep reply
	code, err := s.do(ctx, http.MethodPost, "/targets/"+s.c.names[t]+"/update", body, id, false, &rep)
	if code == http.StatusOK {
		s.updCount[t]++
	}
	oc := s.check(code, err, func() error {
		if rep.Epoch != uint64(j+1) {
			return fmt.Errorf("update %d of target %s: epoch %d, want %d", j, s.c.names[t], rep.Epoch, j+1)
		}
		return nil
	})
	return result{op: o, oc: oc, rep: rep, replied: code == http.StatusOK && err == nil}
}

var errTruncated = errors.New("truncated reply")

// check classifies a request: transport and decode errors, non-2xx
// statuses, truncated replies, and replies verify rejects (a wrong
// answer, recorded for the error message).
func (s *session) check(code int, err error, verify func() error) outcome {
	switch {
	case err != nil:
		return outError
	case code != http.StatusOK:
		return statusOutcome(code)
	}
	if err := verify(); errors.Is(err, errTruncated) {
		return outError
	} else if err != nil {
		s.e.wrongf("%v", err)
		return outWrong
	}
	return outOK
}

// closed runs ops once over nproc connections, each sending its next
// request when the previous reply is in.
func (s *session) closed(ctx context.Context, ops []op) ([]result, time.Duration) {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ops)); i = next.Add(1) - 1 {
				t0 := time.Now()
				res[i] = s.exec(ctx, i, ops[i])
				res[i].lat = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// open sends n requests on a fixed schedule over nproc connections:
// request from+j, for j < n, is ops[(from+j) % len(ops)] and is res[j].
// A request waits for a free connection when both are busy, and its
// latency runs from when the generator issued it, so a
// stall also counts against the requests queued behind it. lags are how
// late the generator issued each request against the schedule; they are
// reported, not added: on this benchmark's hosts the Go runtime's timer
// granularity alone makes them about half a millisecond, more than the
// service time of a cache hit.
func (s *session) open(ctx context.Context, ops []op, from, n int, rate float64) (res []result, lags []float64, elapsed time.Duration) {
	res = make([]result, n)
	lags = make([]float64, n)
	type job struct {
		i    int
		sent time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < s.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res[j.i] = s.exec(ctx, int64(from+j.i), ops[(from+j.i)%len(ops)])
				res[j.i].lat = ms(time.Since(j.sent))
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		lags[i] = ms(now.Sub(due))
		jobs <- job{i, now}
	}
	close(jobs)
	wg.Wait()
	return res, lags, time.Since(start)
}

// okCount is how many of res succeeded.
func okCount(res []result) int {
	n := 0
	for _, r := range res {
		if r.oc == outOK {
			n++
		}
	}
	return n
}

// account folds a phase's results into a tally and returns the
// latencies of its successful queries and updates.
func (e *env) account(t *tally, res []result, secs float64) (queryLats, updateLats []float64) {
	for _, r := range res {
		t.add(r.oc)
		if r.oc != outOK {
			continue
		}
		switch r.op.kind {
		case opQuery:
			queryLats = append(queryLats, r.lat)
		case opUpdate:
			updateLats = append(updateLats, r.lat)
		}
	}
	t.Seconds += secs
	return queryLats, updateLats
}

// checkUnsat asserts that the share of count and mappings replies the
// server flagged unsatisfiable equals the reference's share over the
// same requests — the guard against label spellings silently turning
// patterns unsatisfiable.
func (e *env) checkUnsat(c *serveCorpus, res []result) {
	var served, ref int
	for _, r := range res {
		if r.op.kind != opQuery || r.op.mode == modeStream || r.oc != outOK || r.rep.Epoch != 0 {
			continue
		}
		if r.rep.Unsatisfiable {
			served++
		}
		if c.reqs[r.op.req].unsat {
			ref++
		}
	}
	if served != ref {
		e.wrongf("%d replies flagged unsatisfiable, the reference proves %d", served, ref)
	}
}

// statsDelta sums the per-target service counters of after minus
// before; buckets is the plan-histogram size at after.
type statsDelta struct {
	hits, misses, evictions, shared, estMisses, planned, mispredict, buckets float64
	queueWaitMS, granted                                                     float64
}

func deltaOf(before, after service.RouterStats) statsDelta {
	d := statsDelta{
		queueWaitMS: ms(after.TotalQueueWait - before.TotalQueueWait),
		granted:     float64(after.Granted - before.Granted),
	}
	for name, a := range after.PerTarget {
		b := before.PerTarget[name]
		d.hits += float64(a.CacheHits - b.CacheHits)
		d.misses += float64(a.CacheMisses - b.CacheMisses)
		d.evictions += float64(a.CacheEvictions - b.CacheEvictions)
		d.shared += float64(a.Shared - b.Shared)
		d.estMisses += float64(a.EstimateMisses - b.EstimateMisses)
		d.planned += float64(a.Session.Plans.Planned - b.Session.Plans.Planned)
		d.mispredict += float64(a.MispredictSmall + a.MispredictLarge - b.MispredictSmall - b.MispredictLarge)
		d.buckets += float64(len(a.Session.Plans.Buckets))
	}
	return d
}

// add folds the delta of a later stretch into d.
func (d *statsDelta) add(o statsDelta) {
	d.hits += o.hits
	d.misses += o.misses
	d.evictions += o.evictions
	d.shared += o.shared
	d.estMisses += o.estMisses
	d.planned += o.planned
	d.mispredict += o.mispredict
	d.queueWaitMS += o.queueWaitMS
	d.granted += o.granted
	d.buckets = o.buckets
}

// openLoop is an open loop, run whole or in segments: its results and
// generator lags in request-id order, and its seconds and service
// counters summed over the segments.
type openLoop struct {
	res  []result
	lags []float64
	secs float64
	dl   statsDelta
}

// segment runs requests [from, from+n) of an open loop over ops on s,
// with e.tr recording when trace is set, and appends them to t.
func (t *openLoop) segment(ctx context.Context, e *env, s *session, ops []op, from, n int, trace bool) {
	settle()
	if trace {
		s.tr.Store(e.tr)
		defer s.tr.Store(nil)
	}
	before := s.router.Stats()
	res, lags, d := s.open(ctx, ops, from, n, e.cfg.OpenRate)
	t.dl.add(deltaOf(before, s.router.Stats()))
	t.res, t.lags = append(t.res, res...), append(t.lags, lags...)
	t.secs += d.Seconds()
}

// tracedServe accounts the traced open-loop phase tp run on s and sets
// every per-layer metric that comes from the service and HTTP layers.
// lt are the layer pass's direct-call times per request and untracedP50
// the end-to-end run's median query latency. It returns the server's
// update apply times for update.apply_*.
func (e *env) tracedServe(ctx context.Context, s *session, tp openLoop, untracedP50 float64, lt []layerTimes) (applyMS []float64, err error) {
	tr := e.tr
	res, lags, dl := tp.res, tp.lags, tp.dl
	t := e.phase("traced")
	t.GenLagP99MS = reported(lags, 0.99)
	lats, updLats := e.account(t, res, tp.secs)
	t.tails(lats, updLats)

	httpSelf := tr.selfMS("http")
	handler := tr.selfMS("service.handler")
	var queries, refused, refills float64
	var waits, svcSelf, httpSelfs []float64
	for i, r := range res {
		switch r.op.kind {
		case opUpdate:
			if r.oc == outOK {
				applyMS = append(applyMS, r.rep.ElapsedMS)
			}
			continue
		case opScrape:
			continue
		}
		queries++
		if r.oc == outRefused {
			refused++
		}
		if !r.replied {
			continue
		}
		httpSelfs = append(httpSelfs, httpSelf[int64(i)])
		if r.op.mode == modeStream {
			continue // stream terminals carry no timings
		}
		waits = append(waits, r.rep.QueueWaitMS)
		self := handler[int64(i)] - lt[r.op.req].parse - lt[r.op.req].canon
		if !r.rep.CacheHit && !r.rep.Shared {
			self -= lt[r.op.req].estimate + r.rep.PreprocMS + r.rep.MatchMS
			if r.rep.Epoch > 0 {
				refills++
			}
		}
		svcSelf = append(svcSelf, self)
	}

	l := e.layer
	l.set("cache.hit_ratio", ratio(dl.hits, dl.hits+dl.misses))
	l.set("cache.evictions", dl.evictions)
	l.set("singleflight.shared", dl.shared)
	l.set("admission.wait_ms", ratio(dl.queueWaitMS, dl.granted))
	l.setPct("admission.wait_p99_ms", waits, 0.99)
	l.set("admission.shed_frac", ratio(refused, queries))
	l.set("costmodel.mispredict", dl.mispredict)
	falseShed, err := falseSheds(ctx, s.c, res)
	if err != nil {
		return nil, err
	}
	l.set("costmodel.false_shed", falseShed)
	l.set("domain.runs_per_miss", ratio(dl.estMisses+dl.planned, dl.misses))
	l.setPct("service.self_ms", svcSelf, 0.5)
	l.setPct("http.self_ms", httpSelfs, 0.5)
	l.set("update.refill_misses", refills)
	l.set("stats.plan_buckets", dl.buckets)
	l.setPct("harness.gen_lag_ms", lags, 0.99)
	l.set("harness.trace_overhead", ratio(median(lats), untracedP50))

	var scrapes []float64
	for i := 0; i < statsScrapes; i++ {
		start := time.Now()
		r := s.exec(ctx, int64(len(res)+i), op{kind: opScrape})
		if r.oc == outOK {
			scrapes = append(scrapes, ms(time.Since(start)))
		}
	}
	l.setPct("stats.scrape_ms", scrapes, 0.5)
	return applyMS, nil
}

// falseSheds reruns every query the server refused on the twin of the
// graph version it was refused at, sequentially and within the
// server's explosive budget, after the measured phase. A run that
// completes makes the refusal a false shed; one that times out shows
// the shed was right.
func falseSheds(ctx context.Context, c *serveCorpus, res []result) (float64, error) {
	type key struct{ req, ver int }
	done := make(map[key]bool)
	var n float64
	for _, r := range res {
		if r.op.kind != opQuery || r.oc != outRefused {
			continue
		}
		k := key{int(r.op.req), r.ver}
		ok, seen := done[k]
		if !seen {
			rq := &c.reqs[r.op.req]
			tr, err := c.versions[rq.target][r.ver].Enumerate(ctx, rq.pattern, parsge.Options{
				Algorithm: parsge.Auto, Workers: 1, Semantics: rq.sem, Timeout: explosiveBudget,
			})
			if err != nil {
				return 0, fmt.Errorf("false-shed rerun of request %d: %w", r.op.req, err)
			}
			ok = !tr.TimedOut
			done[k] = ok
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// layerReqs lists the corpus queries for the layer pass, against the
// base-version twins.
func (c *serveCorpus) layerReqs() []layerReq {
	out := make([]layerReq, len(c.reqs))
	for i, r := range c.reqs {
		out[i] = layerReq{text: r.text, twin: c.versions[r.target][0], sem: r.sem, ref: r.refs[0]}
	}
	return out
}
