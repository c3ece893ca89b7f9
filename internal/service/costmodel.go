// Cost-model admission: instead of guessing a query's weight from
// pattern size before preprocessing, the service runs domain
// preprocessing *first* (milliseconds, cached per canonical form via
// the estimate cache) and classifies from what it learns — the
// product-of-domain upper bound, the target's arc density, and the
// plan's historical mean match time from the epoch-keyed plan histogram
// plus a per-plan EWMA the service feeds with realized costs. Small
// queries take one sequential token, large ones the steal pool, and
// predicted-explosive ones are shed with ErrPredictedExplosive (HTTP
// 429) or deprioritized behind the low-priority admission tier.
// Mispredictions are counted and exported so the model is observable.

package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parsge"
)

// AdmissionClass is the cost model's verdict on one query.
type AdmissionClass int

const (
	// classUnset is the zero value: replies served without an admission
	// decision (cache hits, singleflight followers) carry it.
	classUnset AdmissionClass = iota
	// ClassSmall runs on one sequential token.
	ClassSmall
	// ClassLarge runs on the work-stealing parallel pool.
	ClassLarge
	// ClassExplosive is predicted to blow its budget however many
	// workers it gets: shed (ErrPredictedExplosive) or deprioritized,
	// per Config.ExplosivePolicy.
	ClassExplosive
)

// String renders the class the way /stats and reply JSON show it.
func (c AdmissionClass) String() string {
	switch c {
	case ClassSmall:
		return "small"
	case ClassLarge:
		return "large"
	case ClassExplosive:
		return "explosive"
	default:
		return ""
	}
}

// ExplosivePolicy selects what happens to a ClassExplosive query.
type ExplosivePolicy int

const (
	// ExplosiveShed (the default) rejects the query immediately with an
	// *ExplosiveError wrapping ErrPredictedExplosive; the HTTP layer
	// maps it to 429 with the estimate in the body.
	ExplosiveShed ExplosivePolicy = iota
	// ExplosiveDeprioritize admits the query on the parallel pool but
	// queues it in the low-priority admission tier, behind all normal
	// traffic.
	ExplosiveDeprioritize
)

// ErrPredictedExplosive reports a query shed by the cost model: its
// predicted cost exceeded Config.ExplosiveBudget (or its domain bound
// exceeded Config.ExplosiveLogDomain with no history to say otherwise).
// Errors returned by the service wrap it in an *ExplosiveError carrying
// the estimate, so clients can back off proportionally.
var ErrPredictedExplosive = errors.New("service: predicted explosive, query shed")

// ExplosiveError is the typed shed verdict: the predicted cost (zero
// when the static domain bound, not history, triggered the shed), the
// plan key the prediction was keyed on, and the domain upper bound.
type ExplosiveError struct {
	// Predicted is the model's cost estimate from plan history; zero
	// when the query was shed on the static domain bound alone.
	Predicted time.Duration
	// Plan is the resolved preprocessing plan key.
	Plan string
	// LogDomainProduct is log2 of the product of final domain sizes.
	LogDomainProduct float64
}

func (e *ExplosiveError) Error() string {
	if e.Predicted > 0 {
		return fmt.Sprintf("service: predicted explosive (plan %s, ~%s), query shed", e.Plan, e.Predicted)
	}
	return fmt.Sprintf("service: predicted explosive (plan %s, log2 bound %.1f), query shed", e.Plan, e.LogDomainProduct)
}

// Unwrap makes errors.Is(err, ErrPredictedExplosive) hold.
func (e *ExplosiveError) Unwrap() error { return ErrPredictedExplosive }

// estimatorAlpha is the EWMA smoothing factor: recent observations
// dominate after ~1/α samples, so a misclassified repeated pattern
// flips class within a handful of queries.
const estimatorAlpha = 0.3

// estimatorMinSamples is how many observations a plan needs before its
// mean is trusted over the static domain-bound heuristic.
const estimatorMinSamples = 3

// planEstimate is one plan's realized-cost state: an EWMA over
// completed runs and a raise-only floor from truncated ones (a run cut
// off at t cost *at least* t — a floor, never a sample).
type planEstimate struct {
	n         int64   // completed observations
	ewma      float64 // seconds, over completed runs
	floor     float64 // seconds, max partial time of truncated runs
	truncated int64
}

// estimator is the per-service realized-cost feedback state, keyed by
// plan rendering. It deliberately ignores epochs: the epoch-keyed plan
// histogram (Target.PlanCost) is the attributable record; the EWMA is
// the fast-adapting overlay that tracks the current workload.
type estimator struct {
	mu    sync.Mutex
	plans map[string]*planEstimate
}

// observe folds one realized cost in. Truncated runs only raise the
// floor — folding their partial timings into the EWMA would bias it
// optimistic (the run was cut off *because* it was expensive).
func (e *estimator) observe(plan string, d time.Duration, truncated bool) {
	sec := d.Seconds()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plans == nil {
		e.plans = make(map[string]*planEstimate)
	}
	p := e.plans[plan]
	if p == nil {
		p = &planEstimate{}
		e.plans[plan] = p
	}
	if truncated {
		p.truncated++
		if sec > p.floor {
			p.floor = sec
		}
		return
	}
	if p.n == 0 {
		p.ewma = sec
	} else {
		p.ewma = estimatorAlpha*sec + (1-estimatorAlpha)*p.ewma
	}
	p.n++
}

// predict returns the plan's EWMA mean (seconds), how many completed
// observations back it, and the truncation floor (seconds).
func (e *estimator) predict(plan string) (ewma float64, n int64, floor float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.plans[plan]
	if p == nil {
		return 0, 0, 0
	}
	return p.ewma, p.n, p.floor
}

// admitRecord is one query's admission decision with everything needed
// to attribute and audit it: the class, the prediction it rested on,
// the plan key and snapshot epoch it was pinned at, and whether a
// Classify override (or the static fallback) made the call — overridden
// decisions are excluded from the feedback loop, since the model never
// made a prediction to score.
type admitRecord struct {
	class     AdmissionClass
	predicted time.Duration
	planKey   string
	epoch     uint64
	logProd   float64
	override  bool
}

// predictCost combines the plan's history at the estimate's pinned
// epoch with the service's EWMA into one cost prediction. The second
// return reports whether any history backed the number; floors from
// truncated runs raise the prediction even when no completed sample
// exists.
func (s *Service) predictCost(est parsge.CostEstimate) (time.Duration, bool) {
	pc := s.tgt.PlanCost(est.Epoch, est.PlanKey)
	ewmaSec, n, floorSec := s.est.predict(est.PlanKey)
	sec := -1.0
	if pc.Samples >= estimatorMinSamples {
		sec = pc.MeanMatch.Seconds()
	}
	if n >= estimatorMinSamples {
		sec = ewmaSec // the recency-weighted overlay wins
	}
	if f := pc.TruncatedMean.Seconds(); f > floorSec {
		floorSec = f
	}
	if floorSec > 0 && floorSec > sec {
		sec = floorSec // a truncated run is a cost floor, sample or not
	}
	if sec < 0 {
		return 0, false
	}
	return time.Duration(sec * float64(time.Second)), true
}

// classifyEstimate turns a cost estimate plus history into an admission
// class. The domain score — log2 of candidate assignments, nudged up on
// dense targets where a loose bound is likelier to be realized — is
// *query-specific* evidence; plan history is evidence about the whole
// plan bucket, which many queries share. That asymmetry sets the
// precedence: a query whose own bound crosses ExplosiveLogDomain is
// shed however cheap its plan bucket has been, and a history-predicted
// shed never fires on a query whose own bound sits in small territory —
// one truncated run must not poison every cheap query sharing its plan.
// Between those guards, plan history (when backed by enough samples)
// prices the query against the small/explosive budgets; without
// history the score alone picks the class.
func (s *Service) classifyEstimate(est parsge.CostEstimate) (AdmissionClass, time.Duration) {
	if est.Unsatisfiable {
		return ClassSmall, 0 // preprocessing proved it free
	}
	explosiveOn := s.cfg.ExplosiveBudget > 0
	score := est.LogDomainProduct + est.TargetDensity*float64(est.PatternNodes)
	if explosiveOn && score >= s.cfg.ExplosiveLogDomain {
		return ClassExplosive, 0
	}
	if pred, ok := s.predictCost(est); ok {
		switch {
		case explosiveOn && pred >= s.cfg.ExplosiveBudget && score > s.cfg.SmallLogDomain:
			return ClassExplosive, pred
		case pred <= s.cfg.SmallBudget:
			return ClassSmall, pred
		default:
			return ClassLarge, pred
		}
	}
	if score <= s.cfg.SmallLogDomain {
		return ClassSmall, 0
	}
	return ClassLarge, 0
}

// estKey identifies one cached cost estimate: the query's cache key
// (canonical pattern × semantics × options) at one target mutation
// epoch.
//
//sgelint:epochkey
type estKey struct {
	key   string
	epoch uint64
}

// estCacheMax bounds the estimate cache; preprocessing is milliseconds,
// so on overflow the map is simply cleared rather than LRU-tracked.
const estCacheMax = 4096

// estimate returns the query's cost estimate, consulting the per-epoch
// estimate cache when the query has a cache identity. The cache is
// cleared wholesale when the target's epoch advances (stale estimates
// must never price live queries) and when it overflows estCacheMax.
func (s *Service) estimate(ctx context.Context, q Query, key string) (parsge.CostEstimate, error) {
	if key == "" {
		return s.tgt.EstimateCost(ctx, q.Pattern, q.Options)
	}
	epoch := s.tgt.Epoch()
	ek := estKey{key: key, epoch: epoch}
	s.estMu.Lock()
	if s.estEpoch != epoch {
		s.estCache = nil
		s.estEpoch = epoch
	}
	if est, ok := s.estCache[ek]; ok {
		s.estHits++
		s.estMu.Unlock()
		return est, nil
	}
	s.estMisses++
	s.estMu.Unlock()

	est, err := s.tgt.EstimateCost(ctx, q.Pattern, q.Options)
	if err != nil {
		return est, err
	}
	s.estMu.Lock()
	if s.estEpoch == est.Epoch {
		if len(s.estCache) >= estCacheMax {
			s.estCache = nil
		}
		if s.estCache == nil {
			s.estCache = make(map[estKey]parsge.CostEstimate)
		}
		s.estCache[estKey{key: key, epoch: est.Epoch}] = est
	}
	s.estMu.Unlock()
	return est, nil
}

// classifyQuery is the admission front half: it resolves the query's
// class and pins the epoch the decision was made at. A Classify
// override short-circuits the cost model entirely (override=true keeps
// it out of the feedback loop).
func (s *Service) classifyQuery(ctx context.Context, q Query, key string) (admitRecord, error) {
	if s.cfg.Classify != nil {
		_, epoch := s.tgt.MeanDegreeAt()
		cls := ClassSmall
		if s.cfg.Classify(q.Pattern, q.Options) {
			cls = ClassLarge
		}
		return admitRecord{class: cls, epoch: epoch, override: true}, nil
	}
	est, err := s.estimate(ctx, q, key)
	if err != nil {
		return admitRecord{}, err
	}
	cls, pred := s.classifyEstimate(est)
	wantsParallel := q.Options.Workers > 1 || q.Options.Workers == parsge.AutoWorkers
	if cls == ClassSmall && wantsParallel {
		// The client asked for parallelism and the model has no reason
		// to shed: honor the request (compatibility with the static
		// classifier, which always promoted such queries).
		cls = ClassLarge
	}
	if cls == ClassExplosive && q.Options.Limit > 0 {
		// A limit-bounded query cannot realize the full enumeration the
		// domain bound (or the plan's unbounded history) prices; admit
		// it large and let the timeout clamp bound the worst case.
		cls = ClassLarge
	}
	return admitRecord{
		class:     cls,
		predicted: pred,
		planKey:   est.PlanKey,
		epoch:     est.Epoch,
		logProd:   est.LogDomainProduct,
	}, nil
}

// observe feeds one realized cost back into the estimator and scores
// the prediction: a predicted-small query that timed out and a
// predicted-large/explosive one that finished under the small budget
// are both mispredictions, counted and exported via Stats.
func (s *Service) observe(rec admitRecord, res *parsge.Result) {
	if rec.override {
		return // no model prediction to score or train
	}
	plan := "none"
	if res.Plan != nil {
		plan = res.Plan.String()
	}
	s.est.observe(plan, res.MatchTime, res.TimedOut)
	s.statMu.Lock()
	if rec.class == ClassSmall && res.TimedOut {
		s.mispredictSmall++
	} else if rec.class != ClassSmall && !res.TimedOut && res.MatchTime <= s.cfg.SmallBudget {
		s.mispredictLarge++
	}
	s.statMu.Unlock()
}
