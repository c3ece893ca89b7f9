package service

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"parsge"
)

// This file is the multi-target router: one machine, many named target
// graphs, one shared worker budget. Each target gets its own Service —
// own result cache, census cache, singleflight state — but all of them
// queue on a single admission instance, each under its own class, so
// the round-robin discipline in admission.go shares the machine fairly:
// a flood of queries against one target cannot starve the others.
//
// Targets are mutable (Service.Update → Target.ApplyUpdates) and their
// dominant memory cost beyond the graph is the label/NLF index. The
// router bounds that cost with an LRU over *indexes*, not targets: a
// cold target's index is released (Target.ReleaseIndex) when more than
// MaxHotIndexes targets are hot, and rebuilt on demand the next time
// the target is queried (EnsureIndex). Eviction never changes results —
// an index-free target answers every query identically, just with
// whole-vertex-set preprocessing — so the LRU is purely a memory/latency
// trade.

// ErrUnknownTarget reports a request naming a target the router does
// not host.
var ErrUnknownTarget = fmt.Errorf("service: unknown target")

// RouterConfig configures NewRouter. The worker-budget, queue, cache
// and timeout fields mean exactly what they do in Config — they are
// applied machine-wide (admission) or per added target (caches).
type RouterConfig struct {
	// Workers is the machine-wide admission budget shared by every
	// target. Default: GOMAXPROCS.
	Workers int
	// ParallelWorkers is the pool size granted to a large query.
	// Default: half the budget, at least 2, at most the budget.
	ParallelWorkers int
	// MaxQueue bounds the admission queue across all targets.
	// Default: 8× Workers.
	MaxQueue int
	// QueueTimeout bounds admission waits. Default: 2s; negative
	// disables.
	QueueTimeout time.Duration
	// CacheMaxMatches and CacheMaxMappingsPerEntry configure each
	// target's result cache (per target, not shared).
	CacheMaxMatches          int64
	CacheMaxMappingsPerEntry int
	// DefaultTimeout is applied to queries that set none.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every query and census timeout to the server
	// budget (0 = no clamp); see Config.MaxTimeout.
	MaxTimeout time.Duration
	// SmallBudget, ExplosiveBudget, SmallLogDomain, ExplosiveLogDomain
	// and ExplosivePolicy configure each target's
	// cost-model admission (per-target estimators over the shared
	// budget); see the Config fields of the same names.
	SmallBudget                        time.Duration
	ExplosiveBudget                    time.Duration
	SmallLogDomain, ExplosiveLogDomain float64
	ExplosivePolicy                    ExplosivePolicy
	// MaxHotIndexes bounds how many targets may hold their label/NLF
	// index at once; beyond it the least-recently-used target's index
	// is released and rebuilt on demand. 0 means unbounded (no
	// eviction).
	MaxHotIndexes int
	// Classify overrides classification for every target.
	Classify func(pattern *parsge.Graph, opts parsge.Options) bool
}

func (c RouterConfig) svcConfig(tgt *parsge.Target) Config {
	return Config{
		Target:                   tgt,
		Workers:                  c.Workers,
		ParallelWorkers:          c.ParallelWorkers,
		MaxQueue:                 c.MaxQueue,
		QueueTimeout:             c.QueueTimeout,
		CacheMaxMatches:          c.CacheMaxMatches,
		CacheMaxMappingsPerEntry: c.CacheMaxMappingsPerEntry,
		DefaultTimeout:           c.DefaultTimeout,
		MaxTimeout:               c.MaxTimeout,
		SmallBudget:              c.SmallBudget,
		ExplosiveBudget:          c.ExplosiveBudget,
		SmallLogDomain:           c.SmallLogDomain,
		ExplosiveLogDomain:       c.ExplosiveLogDomain,
		ExplosivePolicy:          c.ExplosivePolicy,
		Classify:                 c.Classify,
	}.withDefaults()
}

// TargetInfo describes one hosted target in listings and /stats.
type TargetInfo struct {
	// Name is the routing key.
	Name string
	// Epoch is the target's mutation epoch (0 = never updated).
	Epoch uint64
	// Nodes and Edges describe the current graph version.
	Nodes, Edges int
	// IndexHot reports the label/NLF index is currently resident (false
	// after LRU eviction, until the next query rebuilds it).
	IndexHot bool
}

// RouterStats is a point-in-time snapshot of the router: the shared
// admission state plus every hosted target's service snapshot.
type RouterStats struct {
	// Targets is sorted by name; the map key of PerTarget is the name.
	Targets   []TargetInfo
	PerTarget map[string]Stats
	// Shared admission counters (the per-target Stats repeat these —
	// the admission is shared — so read them here once).
	TokensInUse    int64
	Queued         int
	Granted        int64
	Shed           int64
	QueueTimeouts  int64
	TotalQueueWait time.Duration
}

// Router hosts many named targets behind one shared admission budget.
// All methods are safe for concurrent use.
type Router struct {
	cfg RouterConfig
	adm *admission

	mu     sync.Mutex
	routes map[string]*routerEntry
	clock  uint64 // logical LRU clock: bumped on every route use
	closed bool
}

type routerEntry struct {
	svc     *Service
	tgt     *parsge.Target
	lastUse uint64
}

// NewRouter builds an empty router; add targets with AddTarget.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	probe := cfg.svcConfig(nil) // resolve defaults once for the shared admission
	cfg.Workers = probe.Workers
	cfg.ParallelWorkers = probe.ParallelWorkers
	cfg.MaxQueue = probe.MaxQueue
	return &Router{
		cfg:    cfg,
		adm:    newAdmission(int64(probe.Workers), probe.MaxQueue),
		routes: make(map[string]*routerEntry),
	}
}

// AddTarget builds a Target session over g and hosts it under name.
// Names are unique; adding to a closed router fails.
func (r *Router) AddTarget(name string, g *parsge.Graph, topts parsge.TargetOptions) error {
	if name == "" {
		return fmt.Errorf("service: empty target name")
	}
	tgt, err := parsge.NewTarget(g, topts)
	if err != nil {
		return err
	}
	return r.AddTargetSession(name, tgt)
}

// AddTargetSession hosts an existing Target session under name.
func (r *Router) AddTargetSession(name string, tgt *parsge.Target) error {
	if name == "" {
		return fmt.Errorf("service: empty target name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.routes[name]; dup {
		return fmt.Errorf("service: duplicate target %q", name)
	}
	r.clock++
	r.routes[name] = &routerEntry{
		svc:     newServiceWith(r.cfg.svcConfig(tgt), r.adm, name),
		tgt:     tgt,
		lastUse: r.clock,
	}
	r.enforceIndexBudgetLocked(name)
	return nil
}

// RemoveTarget closes the named target's service (draining in-flight
// requests until ctx fires) and drops the route.
func (r *Router) RemoveTarget(ctx context.Context, name string) error {
	r.mu.Lock()
	e := r.routes[name]
	delete(r.routes, name)
	r.mu.Unlock()
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	return e.svc.Close(ctx)
}

// route resolves a name to its service, stamps the LRU clock, restores
// the target's index if it was evicted, and evicts over-budget cold
// indexes.
func (r *Router) route(name string) (*Service, error) {
	r.mu.Lock()
	e := r.routes[name]
	if e == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	r.clock++
	e.lastUse = r.clock
	r.enforceIndexBudgetLocked(name)
	r.mu.Unlock()
	// Rebuild outside r.mu: index construction is O(graph) and must not
	// block routing to other targets.
	e.tgt.EnsureIndex()
	return e.svc, nil
}

// enforceIndexBudgetLocked releases the least-recently-used targets'
// indexes until at most MaxHotIndexes remain hot. The route being
// touched (keep) is never evicted — it is about to serve.
func (r *Router) enforceIndexBudgetLocked(keep string) {
	if r.cfg.MaxHotIndexes <= 0 {
		return
	}
	type hot struct {
		name    string
		lastUse uint64
	}
	var hots []hot
	for name, e := range r.routes {
		if e.tgt.HasIndex() {
			hots = append(hots, hot{name, e.lastUse})
		}
	}
	// The touched route's index may not be resident yet (EnsureIndex
	// runs after the lock drops) — count it as hot so the budget holds
	// after the rebuild.
	if keep != "" {
		if e := r.routes[keep]; e != nil && !e.tgt.HasIndex() {
			hots = append(hots, hot{keep, e.lastUse})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].lastUse < hots[j].lastUse })
	over := len(hots) - r.cfg.MaxHotIndexes
	for _, h := range hots {
		if over <= 0 {
			return
		}
		if h.name == keep {
			continue
		}
		r.routes[h.name].tgt.ReleaseIndex()
		over--
	}
}

// Count serves a match-count query against the named target.
func (r *Router) Count(ctx context.Context, name string, q Query) (Reply, error) {
	svc, err := r.route(name)
	if err != nil {
		return Reply{}, err
	}
	return svc.Count(ctx, q)
}

// Enumerate serves a full-result query against the named target.
func (r *Router) Enumerate(ctx context.Context, name string, q Query) (Reply, error) {
	svc, err := r.route(name)
	if err != nil {
		return Reply{}, err
	}
	return svc.Enumerate(ctx, q)
}

// Stream serves a live match stream from the named target.
func (r *Router) Stream(ctx context.Context, name string, q Query) (<-chan parsge.Match, <-chan parsge.StreamEnd, error) {
	svc, err := r.route(name)
	if err != nil {
		return nil, nil, err
	}
	return svc.Stream(ctx, q)
}

// Census serves a motif census of the named target.
func (r *Router) Census(ctx context.Context, name string, req CensusRequest) (CensusReply, error) {
	svc, err := r.route(name)
	if err != nil {
		return CensusReply{}, err
	}
	return svc.Census(ctx, req)
}

// Update applies an edge-update batch to the named target (see
// Service.Update: batch-atomic, epoch-advancing, cache-invalidating).
func (r *Router) Update(ctx context.Context, name string, updates []parsge.EdgeUpdate) (parsge.UpdateResult, error) {
	svc, err := r.route(name)
	if err != nil {
		return parsge.UpdateResult{}, err
	}
	return svc.Update(ctx, updates)
}

// Target returns the named hosted target session, or nil.
func (r *Router) Target(name string) *parsge.Target {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.routes[name]; e != nil {
		return e.tgt
	}
	return nil
}

// Targets lists the hosted targets, sorted by name.
func (r *Router) Targets() []TargetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TargetInfo, 0, len(r.routes))
	for name, e := range r.routes {
		g := e.tgt.Graph()
		out = append(out, TargetInfo{
			Name:     name,
			Epoch:    e.tgt.Epoch(),
			Nodes:    g.NumNodes(),
			Edges:    g.NumEdges(),
			IndexHot: e.tgt.HasIndex(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns a point-in-time snapshot of the router.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	entries := make(map[string]*routerEntry, len(r.routes))
	for name, e := range r.routes {
		entries[name] = e
	}
	r.mu.Unlock()

	st := RouterStats{PerTarget: make(map[string]Stats, len(entries))}
	for name, e := range entries {
		g := e.tgt.Graph()
		st.Targets = append(st.Targets, TargetInfo{
			Name:     name,
			Epoch:    e.tgt.Epoch(),
			Nodes:    g.NumNodes(),
			Edges:    g.NumEdges(),
			IndexHot: e.tgt.HasIndex(),
		})
		st.PerTarget[name] = e.svc.Stats()
	}
	sort.Slice(st.Targets, func(i, j int) bool { return st.Targets[i].Name < st.Targets[j].Name })
	st.TokensInUse, st.Queued, st.Granted, st.Shed, st.QueueTimeouts, st.TotalQueueWait = r.adm.load()
	return st
}

// Close drains every hosted target's service: new requests fail with
// ErrClosed, in-flight ones are waited for until ctx fires.
func (r *Router) Close(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	entries := make([]*routerEntry, 0, len(r.routes))
	for _, e := range r.routes {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	var first error
	for _, e := range entries {
		if err := e.svc.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
