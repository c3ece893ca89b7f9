// Package service is the query-serving layer above parsge.Target: it
// multiplexes many concurrent pattern queries from many clients onto one
// shared-memory machine. The paper (Kimmig/Meyerhenke/Strash) parallelizes
// a single enumeration; a production service needs three things on top,
// and this package is exactly those three:
//
//   - A result cache keyed by canonical pattern hash × resolved
//     semantics × options fingerprint (see cacheKey), LRU-bounded by
//     match-count memory, with singleflight deduplication so identical
//     in-flight queries run once and share the result.
//   - Admission control that partitions the machine's worker budget
//     across concurrent queries — large queries get the work-stealing
//     parallel pool, small ones run sequentially — with FIFO queueing,
//     a wait bound, and load shedding under overload (see admission).
//   - Observability: Stats() aggregates the service counters with the
//     Target's session statistics, including the plan histogram that
//     makes the adaptive preprocessing scheduler visible in production.
//
// cmd/sgeserve exposes the service over HTTP; the soak and property
// tests in this package hold it to the brute-force oracle under
// concurrency, cancellation and cache churn.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parsge"
	"parsge/internal/graph"
)

// ErrClosed reports a query submitted after Close began draining.
var ErrClosed = errors.New("service: closed")

// Config configures New. The zero value of every field is a usable
// default; only Target is required.
type Config struct {
	// Target is the session the service serves queries against.
	Target *parsge.Target
	// Workers is the machine's total worker budget — the number of
	// admission tokens. Default: GOMAXPROCS.
	Workers int
	// ParallelWorkers is the pool size granted to a large query (its
	// token demand). Default: half the budget, at least 2, at most the
	// budget.
	ParallelWorkers int
	// MaxQueue bounds the admission queue; a query arriving with the
	// queue full is shed with ErrOverloaded. Default: 8× Workers.
	MaxQueue int
	// QueueTimeout bounds the time a query waits for admission before
	// failing with ErrQueueTimeout. Default: 2s; negative disables.
	QueueTimeout time.Duration
	// CacheMaxMatches is the result cache budget in match-count memory
	// units (see entryCost). Default: 1<<20; negative disables caching.
	CacheMaxMatches int64
	// CacheMaxMappingsPerEntry caps the mappings stored in one cache
	// entry; a complete result set larger than this is cached count-only.
	// Default: 4096.
	CacheMaxMappingsPerEntry int
	// DefaultTimeout is applied to queries that set no Timeout of their
	// own (0 keeps them unbounded). A robustness valve for serving
	// untrusted patterns.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every query and census timeout — client-supplied
	// or defaulted — to the server's budget (0 = no clamp). Without it a
	// client asking for an hour bypasses DefaultTimeout entirely.
	MaxTimeout time.Duration
	// SmallBudget is the cost under which a query is classified small
	// (one sequential token). Default: 25ms.
	SmallBudget time.Duration
	// ExplosiveBudget is the predicted cost at or above which a query is
	// classified explosive (shed or deprioritized, per ExplosivePolicy).
	// Default: MaxTimeout when set, else 30s; negative disables the
	// explosive class entirely (everything expensive is just large).
	ExplosiveBudget time.Duration
	// SmallLogDomain and ExplosiveLogDomain are the history-free
	// fallback thresholds on the domain upper bound (log2 of the product
	// of domain sizes, density-adjusted): at or below SmallLogDomain the
	// query is small, at or above ExplosiveLogDomain explosive.
	// Defaults: 22 and 44.
	SmallLogDomain, ExplosiveLogDomain float64
	// ExplosivePolicy selects shed (default) or deprioritize for
	// explosive-classified queries.
	ExplosivePolicy ExplosivePolicy
	// Classify overrides classification entirely: return true to give
	// the query the parallel pool, false to run it sequentially. No
	// query is shed and the cost model is bypassed — the full-override
	// escape hatch predating the cost model.
	Classify func(pattern *parsge.Graph, opts parsge.Options) bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ParallelWorkers <= 0 {
		c.ParallelWorkers = c.Workers / 2
	}
	if c.ParallelWorkers < 2 {
		c.ParallelWorkers = 2
	}
	if c.ParallelWorkers > c.Workers {
		c.ParallelWorkers = c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8 * c.Workers
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueueTimeout < 0 {
		c.QueueTimeout = 0
	}
	if c.CacheMaxMatches == 0 {
		c.CacheMaxMatches = 1 << 20
	}
	if c.CacheMaxMatches < 0 {
		c.CacheMaxMatches = 0 // newCache(0) disables
	}
	if c.CacheMaxMappingsPerEntry <= 0 {
		c.CacheMaxMappingsPerEntry = 4096
	}
	if c.SmallBudget <= 0 {
		c.SmallBudget = 25 * time.Millisecond
	}
	if c.ExplosiveBudget == 0 {
		if c.MaxTimeout > 0 {
			c.ExplosiveBudget = c.MaxTimeout
		} else {
			c.ExplosiveBudget = 30 * time.Second
		}
	}
	if c.ExplosiveBudget < 0 {
		c.ExplosiveBudget = 0 // explosive class disabled
	}
	if c.SmallLogDomain == 0 {
		c.SmallLogDomain = 22
	}
	if c.ExplosiveLogDomain == 0 {
		c.ExplosiveLogDomain = 44
	}
	return c
}

// Query is one client request: a pattern plus the options it should run
// under. Options.Visit must be nil (the service owns result delivery)
// and Options.Workers is advisory only — admission control, not the
// client, decides the parallelism a query actually gets.
type Query struct {
	Pattern *parsge.Graph
	Options parsge.Options
}

// Reply reports one served query.
type Reply struct {
	// Result is the enumeration outcome. For a cache hit it is the
	// result of the run that populated the entry (its timings describe
	// that run, not this request).
	Result parsge.Result
	// Mappings holds the embeddings in the client pattern's numbering;
	// nil for Count queries. Cached mappings are translated from the
	// canonical numbering through the client pattern's permutation.
	Mappings [][]int32
	// CacheHit reports the reply was served from the result cache;
	// Shared that it was computed once by a concurrent identical query
	// (singleflight) and shared.
	CacheHit, Shared bool
	// Large reports the query was classified large and ran on the
	// parallel pool. QueueWait is the time spent in the admission queue.
	Large     bool
	QueueWait time.Duration
	// Class is the cost model's admission verdict; the zero value marks
	// replies served without an admission decision (cache hits,
	// singleflight followers). ClassEpoch is the target mutation epoch
	// the decision was pinned at — compare it with Result.Epoch to audit
	// whether an update landed between classification and run.
	// PredictedCost is the model's cost estimate (0 when no plan history
	// backed one).
	Class         AdmissionClass
	ClassEpoch    uint64
	PredictedCost time.Duration
}

// flightKey identifies one singleflight rendezvous: the result cache
// key, the result shape (a mappings run cannot satisfy waiters joined
// for counts and vice versa — they rendezvous separately), and the
// target mutation epoch. The epoch is what keeps a query arriving
// after ApplyUpdates from latching onto a pre-update leader; it was a
// "#e%d" suffix in a formatted string until sgelint's epochkey
// analyzer demanded a field it could see.
//
//sgelint:epochkey
type flightKey struct {
	key          string
	needMappings bool
	epoch        uint64
}

// flight is one in-flight computation identical queries rendezvous on.
type flight struct {
	done chan struct{}
	ent  *entry // nil when the leader's run was truncated or failed
	err  error
}

// Service multiplexes concurrent queries onto one Target. All methods
// are safe for concurrent use.
type Service struct {
	cfg   Config
	tgt   *parsge.Target
	cache *cache
	adm   *admission
	// cls is the admission class the service's queries queue under: ""
	// for a standalone Service (a single class degenerates to plain
	// FIFO), the target name when the Service is one route of a Router
	// sharing its admission with sibling targets.
	cls string

	flightMu sync.Mutex
	flights  map[flightKey]*flight

	// Census state: the per-(K, epoch) complete-result cache and
	// singleflight map; see census.go. Entries of superseded epochs are
	// evicted on sight.
	censusMu      sync.Mutex
	censusFlights map[censusID]*censusFlight
	censusCache   map[censusID]*parsge.CensusResult
	censusHits    int64
	censusMisses  int64

	// est is the per-plan realized-cost EWMA the cost model feeds back
	// into; estMu guards the per-epoch cost-estimate cache behind it.
	est       estimator
	estMu     sync.Mutex
	estCache  map[estKey]parsge.CostEstimate
	estEpoch  uint64
	estHits   int64
	estMisses int64

	statMu          sync.Mutex
	queries         int64
	shared          int64
	sequential      int64
	parallel        int64
	census          int64
	updates         int64
	shedExplosive   int64
	deprioritized   int64
	mispredictSmall int64
	mispredictLarge int64

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Service over cfg.Target.
func New(cfg Config) (*Service, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("service: nil Target")
	}
	cfg = cfg.withDefaults()
	return newServiceWith(cfg, newAdmission(int64(cfg.Workers), cfg.MaxQueue), ""), nil
}

// newServiceWith builds a Service over an externally-owned admission —
// how a Router gives every target its own cache and singleflight state
// while all targets share one machine-wide worker budget, queueing
// under their own class.
func newServiceWith(cfg Config, adm *admission, cls string) *Service {
	return &Service{
		cfg:     cfg,
		tgt:     cfg.Target,
		cache:   newCache(cfg.CacheMaxMatches),
		adm:     adm,
		cls:     cls,
		flights: make(map[flightKey]*flight),
	}
}

// Target returns the underlying session.
func (s *Service) Target() *parsge.Target { return s.tgt }

// begin registers an in-flight request, refusing once draining started.
func (s *Service) begin() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.wg.Add(1)
	return nil
}

// Close drains the service: new queries fail with ErrClosed, in-flight
// ones (streams included) are waited for until ctx fires. The Target is
// not touched — it may be shared with other services.
func (s *Service) Close(ctx context.Context) error {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// canonBudget caps the individualization search of untrusted patterns:
// 4096 complete orderings is thousands of times what any real labeled
// pattern needs (refinement usually discretizes immediately) yet bounds
// a hostile highly-symmetric pattern — whose canonicalization is
// factorial and would otherwise pin a core before admission control —
// to milliseconds.
const canonBudget = 1 << 12

// validate normalizes a query and resolves its cache identity. An empty
// key marks the query uncacheable (its canonicalization exceeded
// canonBudget): it bypasses the cache and singleflight and just runs.
func (s *Service) validate(q Query) (sem parsge.Semantics, perm []int32, key string, err error) {
	if q.Pattern == nil {
		return 0, nil, "", fmt.Errorf("service: nil pattern")
	}
	if q.Options.Visit != nil {
		return 0, nil, "", fmt.Errorf("service: Options.Visit must be nil")
	}
	sem, err = s.tgt.ResolveSemantics(q.Options)
	if err != nil {
		return 0, nil, "", err
	}
	canon, perm, ok := graph.CanonicalFormBudget(q.Pattern, canonBudget)
	if !ok {
		return sem, nil, "", nil
	}
	return sem, perm, cacheKey(canon, sem, q.Options), nil
}

// prepared returns the options a query actually runs with: the service
// owns parallelism and result delivery, folds in DefaultTimeout, and
// clamps every timeout — client-supplied or defaulted — to MaxTimeout.
func (s *Service) prepared(opts parsge.Options, workers int) parsge.Options {
	opts.Workers = workers
	opts.Visit = nil
	if opts.Timeout == 0 {
		opts.Timeout = s.cfg.DefaultTimeout
	}
	if mt := s.cfg.MaxTimeout; mt > 0 && (opts.Timeout == 0 || opts.Timeout > mt) {
		opts.Timeout = mt
	}
	return opts
}

// Count serves a match-count query: cache, then singleflight, then an
// admission-controlled run.
func (s *Service) Count(ctx context.Context, q Query) (Reply, error) {
	return s.do(ctx, q, false)
}

// Enumerate serves a full-result query: like Count, plus the embeddings
// in the client pattern's numbering. Result sets can be exponential in
// the pattern size — set Options.Limit when serving untrusted patterns.
func (s *Service) Enumerate(ctx context.Context, q Query) (Reply, error) {
	return s.do(ctx, q, true)
}

func (s *Service) do(ctx context.Context, q Query, needMappings bool) (Reply, error) {
	if err := s.begin(); err != nil {
		return Reply{}, err
	}
	defer s.wg.Done()
	sem, perm, key, err := s.validate(q)
	if err != nil {
		return Reply{}, err
	}
	s.statMu.Lock()
	s.queries++
	s.statMu.Unlock()

	if key == "" {
		// Uncacheable (canonicalization over budget): no cache, no
		// singleflight — just an admission-controlled run.
		reply, _, err := s.runLeader(ctx, q, sem, perm, key, needMappings)
		return reply, err
	}

	// The retry loop: each turn either hits the cache, joins an
	// in-flight identical query, or becomes the leader and runs. A
	// waiter whose leader was truncated (timeout/cancel — nothing
	// cacheable) retries; after a few turns it stops deduplicating and
	// just runs, so one perpetually-timing-out leader cannot livelock
	// its followers. Every turn re-reads the target's mutation epoch:
	// cache entries from superseded epochs are misses (get evicts them),
	// and the singleflight key carries the epoch so a query arriving
	// after ApplyUpdates never latches onto a pre-update leader.
	for attempt := 0; ; attempt++ {
		epoch := s.tgt.Epoch()
		if ent, ok := s.cache.get(key, needMappings, epoch); ok {
			return s.replyFromEntry(ent, perm, needMappings, true, false), nil
		}
		if ctx.Err() != nil {
			return Reply{}, ctx.Err()
		}

		fkey := flightKey{key: key, needMappings: needMappings, epoch: epoch}
		s.flightMu.Lock()
		if f := s.flights[fkey]; f != nil && attempt < 3 {
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Reply{}, ctx.Err()
			}
			if f.err != nil && !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
				// Deterministic for an identical query (validation,
				// overload backpressure): share it instead of stampeding.
				return Reply{}, f.err
			}
			if f.err == nil && f.ent != nil {
				s.statMu.Lock()
				s.shared++
				s.statMu.Unlock()
				return s.replyFromEntry(f.ent, perm, needMappings, false, true), nil
			}
			// The leader was truncated or its own context died — both
			// leader-specific outcomes, not verdicts on the query.
			// This waiter (whose context is checked at the loop top)
			// retries rather than failing a live client with someone
			// else's cancellation.
			continue
		}
		var f *flight
		if attempt < 3 {
			f = &flight{done: make(chan struct{})}
			s.flights[fkey] = f
		}
		s.flightMu.Unlock()

		reply, ent, err := s.runLeader(ctx, q, sem, perm, key, needMappings)
		if f != nil {
			s.flightMu.Lock()
			delete(s.flights, fkey)
			s.flightMu.Unlock()
			f.ent, f.err = ent, err
			close(f.done)
		}
		if err != nil {
			return Reply{}, err
		}
		return reply, nil
	}
}

// admit classifies q via the cost model, acquires its admission tokens,
// and counts the run. An explosive verdict under ExplosiveShed returns
// an *ExplosiveError without touching the token pool; under
// ExplosiveDeprioritize the query takes pool tokens through the
// low-priority tier. On success the caller runs with `workers`
// parallelism and must call release when the query (or stream) ends.
func (s *Service) admit(ctx context.Context, q Query, key string) (rec admitRecord, workers int, waited time.Duration, release func(), err error) {
	rec, err = s.classifyQuery(ctx, q, key)
	if err != nil {
		return rec, 0, 0, nil, err
	}
	need := int64(1)
	workers = 1
	low := false
	switch rec.class {
	case ClassLarge:
		need = int64(s.cfg.ParallelWorkers)
		workers = s.cfg.ParallelWorkers
	case ClassExplosive:
		if s.cfg.ExplosivePolicy == ExplosiveShed {
			s.statMu.Lock()
			s.shedExplosive++
			s.statMu.Unlock()
			return rec, 0, 0, nil, &ExplosiveError{
				Predicted:        rec.predicted,
				Plan:             rec.planKey,
				LogDomainProduct: rec.logProd,
			}
		}
		need = int64(s.cfg.ParallelWorkers)
		workers = s.cfg.ParallelWorkers
		low = true
	}
	waited, err = s.adm.acquire(ctx, s.cls, need, s.cfg.QueueTimeout, low)
	if err != nil {
		return rec, 0, waited, nil, err
	}
	s.statMu.Lock()
	switch {
	case low:
		s.deprioritized++
		s.parallel++
	case rec.class == ClassLarge:
		s.parallel++
	default:
		s.sequential++
	}
	s.statMu.Unlock()
	return rec, workers, waited, func() { s.adm.release(need) }, nil
}

// runLeader acquires admission and runs the query for real. On a
// complete (un-truncated) run it builds the canonical cache entry,
// caches it, and returns it for singleflight sharing.
func (s *Service) runLeader(ctx context.Context, q Query, sem parsge.Semantics, perm []int32, key string, needMappings bool) (Reply, *entry, error) {
	rec, workers, waited, release, err := s.admit(ctx, q, key)
	if err != nil {
		return Reply{}, nil, err
	}
	defer release()

	opts := s.prepared(q.Options, workers)
	var mu sync.Mutex
	var mappings [][]int32
	if needMappings {
		opts.Visit = func(m []int32) bool {
			cp := append([]int32(nil), m...)
			mu.Lock()
			mappings = append(mappings, cp)
			mu.Unlock()
			return true
		}
	}
	res, err := s.tgt.Enumerate(ctx, q.Pattern, opts)
	if err != nil {
		return Reply{}, nil, err
	}
	s.observe(rec, &res)
	reply := Reply{
		Result:        res,
		Mappings:      mappings,
		Large:         rec.class != ClassSmall,
		QueueWait:     waited,
		Class:         rec.class,
		ClassEpoch:    rec.epoch,
		PredictedCost: rec.predicted,
	}
	if res.TimedOut || key == "" {
		// Truncated (Matches is a lower bound) or uncacheable: correct
		// for this caller, but not a result identical queries may reuse.
		return reply, nil, nil
	}
	ent := &entry{key: key, res: res, epoch: res.Epoch}
	if needMappings {
		ent.hasMappings = true
		ent.mappings = make([][]int32, len(mappings))
		for i, m := range mappings {
			cm := make([]int32, len(m))
			for v, tv := range m {
				cm[perm[v]] = tv
			}
			ent.mappings[i] = cm
		}
	}
	s.cachePut(ent)
	return reply, ent, nil
}

// cachePut inserts an entry, stripping mappings beyond the per-entry cap
// (the count is still worth caching).
func (s *Service) cachePut(ent *entry) {
	if len(ent.mappings) > s.cfg.CacheMaxMappingsPerEntry {
		ent = &entry{key: ent.key, res: ent.res, epoch: ent.epoch}
	}
	s.cache.put(ent)
}

// cacheGetStream looks up a mapping-bearing entry for a stream replay;
// an uncacheable query (empty key) never consults the cache, so its
// counters only see real lookups.
func (s *Service) cacheGetStream(key string) (*entry, bool) {
	if key == "" {
		return nil, false
	}
	return s.cache.get(key, true, s.tgt.Epoch())
}

// replyFromEntry materializes a cached/shared entry for a client whose
// pattern has canonical permutation perm.
func (s *Service) replyFromEntry(ent *entry, perm []int32, needMappings, hit, shared bool) Reply {
	r := Reply{Result: ent.res, CacheHit: hit, Shared: shared}
	if needMappings {
		r.Mappings = make([][]int32, len(ent.mappings))
		for i, cm := range ent.mappings {
			r.Mappings[i] = translate(cm, perm)
		}
	}
	return r
}

// Stream serves a query as a live match stream: the matches channel
// closes when the enumeration finishes, then exactly one StreamEnd is
// delivered (Result.TimedOut reports truncation). A cache hit replays
// the cached result set; a miss runs admission-controlled like any other
// query, holding its tokens until the stream ends, and — when the stream
// completes un-truncated within the per-entry cap — populates the cache.
// Streams do not join singleflight (two streams would each need every
// match anyway). Cancelling ctx tears the stream down promptly; a
// disconnected client costs nothing beyond its context firing.
func (s *Service) Stream(ctx context.Context, q Query) (<-chan parsge.Match, <-chan parsge.StreamEnd, error) {
	if err := s.begin(); err != nil {
		return nil, nil, err
	}
	_, perm, key, err := s.validate(q)
	if err != nil {
		s.wg.Done()
		return nil, nil, err
	}
	s.statMu.Lock()
	s.queries++
	s.statMu.Unlock()

	matches := make(chan parsge.Match, 64)
	end := make(chan parsge.StreamEnd, 1)

	if ent, ok := s.cacheGetStream(key); ok {
		go func() {
			defer s.wg.Done()
			res := ent.res
			for _, cm := range ent.mappings {
				select {
				case matches <- parsge.Match{Mapping: translate(cm, perm)}:
					continue
				case <-ctx.Done():
					res.TimedOut = true
				}
				break
			}
			// The terminal send happens exactly once, outside the replay
			// loop — `end` is a one-shot buffered channel, so this can
			// never block a cancelled client (sgelint: ctxsend).
			close(matches)
			end <- parsge.StreamEnd{Result: res}
		}()
		return matches, end, nil
	}

	rec, workers, _, release, err := s.admit(ctx, q, key)
	if err != nil {
		s.wg.Done()
		return nil, nil, err
	}

	inner, innerEnd := s.tgt.EnumerateStreamResult(ctx, q.Pattern, s.prepared(q.Options, workers))
	go func() {
		defer s.wg.Done()
		defer release()
		var collected [][]int32
		overflow := key == "" // uncacheable: don't accumulate for the cache
		dead := false
		for m := range inner {
			if !overflow {
				if len(collected) >= s.cfg.CacheMaxMappingsPerEntry {
					overflow, collected = true, nil
				} else {
					cm := make([]int32, len(m.Mapping))
					for v, tv := range m.Mapping {
						cm[perm[v]] = tv
					}
					collected = append(collected, cm)
				}
			}
			if !dead {
				select {
				case matches <- m:
				case <-ctx.Done():
					dead = true // stop forwarding; the producer winds down on the same ctx
				}
			}
		}
		e := <-innerEnd
		if e.Err == nil {
			s.observe(rec, &e.Result)
		}
		close(matches)
		if e.Err == nil && !e.Result.TimedOut && !dead && key != "" {
			ent := &entry{key: key, res: e.Result, epoch: e.Result.Epoch}
			if !overflow {
				ent.hasMappings = true
				ent.mappings = collected
			}
			s.cache.put(ent)
		}
		end <- e
	}()
	return matches, end, nil
}

// Update applies a batch of edge mutations to the service's target
// (see parsge.Target.ApplyUpdates: batch-atomic, epoch-advancing).
// Queries already running finish on the snapshot they started with;
// queries arriving after Update returns see the new graph, and every
// cache entry of the superseded epoch dies on its next lookup — the
// service can never serve a pre-update result for a post-update query.
// The update takes one admission token, so mutation work queues behind
// the same budget as everything else.
func (s *Service) Update(ctx context.Context, updates []parsge.EdgeUpdate) (parsge.UpdateResult, error) {
	if err := s.begin(); err != nil {
		return parsge.UpdateResult{}, err
	}
	defer s.wg.Done()
	if _, err := s.adm.acquire(ctx, s.cls, 1, s.cfg.QueueTimeout, false); err != nil {
		return parsge.UpdateResult{}, err
	}
	defer s.adm.release(1)
	res, err := s.tgt.ApplyUpdates(ctx, updates)
	if err == nil {
		s.statMu.Lock()
		s.updates++
		s.statMu.Unlock()
	}
	return res, err
}

// Stats is a point-in-time snapshot of the service: its own serving
// counters plus the Target's session statistics (including the plan
// histogram of the adaptive preprocessing scheduler).
type Stats struct {
	// Queries counts every well-formed query the service took on —
	// cache hits included; malformed requests are rejected before
	// counting. Shared counts those served by a singleflight leader.
	Queries, Shared int64
	// Sequential and Parallel count admitted runs by class.
	Sequential, Parallel int64
	// Census counts census requests (a subset of Queries; every admitted
	// census run also counts as Parallel — census is always large).
	// CensusCacheHits and CensusCacheMisses are the per-K census cache
	// counters, separate from the pattern-result cache below.
	Census                             int64
	CensusCacheHits, CensusCacheMisses int64
	// Updates counts applied edge-update batches; Epoch is the target's
	// mutation epoch at snapshot time.
	Updates int64
	Epoch   uint64
	// Cache counters.
	CacheHits, CacheMisses, CacheEvictions int64
	CacheEntries                           int
	CacheCost                              int64
	// Admission counters: tokens in use now, queries queued now, total
	// grants, immediate sheds, queue-wait timeouts, summed queue wait.
	TokensInUse    int64
	Queued         int
	Granted        int64
	Shed           int64
	QueueTimeouts  int64
	TotalQueueWait time.Duration
	// Cost-model counters. ShedExplosive counts queries rejected with
	// ErrPredictedExplosive; Deprioritized those admitted through the
	// low-priority tier. MispredictSmall counts predicted-small queries
	// that timed out, MispredictLarge predicted-large/explosive ones
	// that finished under SmallBudget — the misprediction rate is
	// (MispredictSmall+MispredictLarge) over the model-classified runs.
	// EstimateHits/EstimateMisses are the cost-estimate cache counters.
	ShedExplosive   int64
	Deprioritized   int64
	MispredictSmall int64
	MispredictLarge int64
	EstimateHits    int64
	EstimateMisses  int64
	// Session aggregates everything the Target executed — for queries
	// answered from the cache no new execution happens, which is why
	// Session.Queries can be far below Queries under a hot cache.
	Session parsge.SessionStats
}

// Stats returns the current snapshot.
func (s *Service) Stats() Stats {
	entries, cost, hits, misses, evictions := s.cache.stats()
	inUse, queued, granted, shed, timedOut, totalWait := s.adm.load()
	s.censusMu.Lock()
	censusHits, censusMisses := s.censusHits, s.censusMisses
	s.censusMu.Unlock()
	s.estMu.Lock()
	estHits, estMisses := s.estHits, s.estMisses
	s.estMu.Unlock()
	s.statMu.Lock()
	st := Stats{
		Queries:           s.queries,
		Shared:            s.shared,
		Sequential:        s.sequential,
		Parallel:          s.parallel,
		Census:            s.census,
		CensusCacheHits:   censusHits,
		CensusCacheMisses: censusMisses,
		Updates:           s.updates,
		Epoch:             s.tgt.Epoch(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEvictions:    evictions,
		CacheEntries:      entries,
		CacheCost:         cost,
		TokensInUse:       inUse,
		Queued:            queued,
		Granted:           granted,
		Shed:              shed,
		QueueTimeouts:     timedOut,
		TotalQueueWait:    totalWait,
		ShedExplosive:     s.shedExplosive,
		Deprioritized:     s.deprioritized,
		MispredictSmall:   s.mispredictSmall,
		MispredictLarge:   s.mispredictLarge,
		EstimateHits:      estHits,
		EstimateMisses:    estMisses,
	}
	s.statMu.Unlock()
	st.Session = s.tgt.Stats()
	return st
}
