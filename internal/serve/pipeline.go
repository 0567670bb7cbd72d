// The query pipeline every engine shares. A query runs
//
//	acquire → admission → engine deadline → shed → route → fan out → merge
//
// over a ShardSet, the one thing each engine supplies: static searchers
// behind per-shard breakers (Engine), mutable delta stores
// (MutableEngine), or R-way replicated stores on simulated nodes
// (cluster.Engine). Everything else — validation, the overload
// protection of resilience.go, the routing stage of route.go, the
// parallel fan-out, the (distance, index) top-k merge, observability —
// exists once, here.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/obs"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// ShardSet is the shard layer a Pipeline queries.
type ShardSet interface {
	// NumShards returns the shard count.
	NumShards() int
	// Visit answers q on shard i: its local top-k under global ids in
	// (distance, index) order, the visit's own (non-nil) meter, and
	// whether a fallback — a breaker-open host scan or a replica
	// fail-over — served it. ctx carries the visit's span when sampled.
	Visit(ctx context.Context, i int, q []float64, k int) (nn []vec.Neighbor, m *arch.Meter, fallback bool, err error)
	// Servable reports whether shard i can be visited right now; exact
	// routing seeds its first wave from the best servable shard.
	Servable(i int) bool
	// DegradedShards lists shards permanently serving a host fallback.
	DegradedShards() []int
}

// Pipeline runs queries over a ShardSet. It also gates its engine
// against Close: queries and the engine's own mutations hold an Acquire
// lease, so Close drains everything in flight. Safe for concurrent use.
type Pipeline struct {
	shards  ShardSet
	dims    int
	router  *route.Router
	workers int
	timeout time.Duration
	res     *engineResilience // nil when Options.Resilience is nil
	eobs    *engineObs        // nil when Options.Obs is nil

	closeMu sync.RWMutex
	closed  bool
}

// pipeline names the embedded *Pipeline of the serve engines, keeping
// the field unexported while its methods promote.
type pipeline = Pipeline

// NewPipeline builds the query pipeline over shards of dims-dimensional
// rows. Of opts it reads Router (which must cover exactly the shards),
// Workers (default GOMAXPROCS), QueryTimeout, Resilience and Obs.
func NewPipeline(shards ShardSet, dims int, opts Options) (*Pipeline, error) {
	if err := checkRouter(opts.Router, shards.NumShards(), dims); err != nil {
		return nil, err
	}
	p := &Pipeline{shards: shards, dims: dims, router: opts.Router,
		workers: opts.Workers, timeout: opts.QueryTimeout}
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	if cfg := opts.Resilience; cfg != nil {
		var err error
		if p.res, err = newEngineResilience(cfg); err != nil {
			return nil, err
		}
		// A batch must not reject its own jobs: the worker pool is the
		// batch's admission, so it never outnumbers the concurrency cap.
		if mc := cfg.MaxConcurrent; mc > 0 && p.workers > mc {
			p.workers = mc
		}
	}
	if opts.Obs != nil {
		p.eobs = newEngineObs(p, opts.Obs)
	}
	return p, nil
}

// Acquire takes a lease against Close; release must be called when the
// operation finishes. It fails with ErrClosed once Close has run.
func (p *Pipeline) Acquire() (release func(), err error) {
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return nil, ErrClosed
	}
	return p.closeMu.RUnlock, nil
}

// Close waits for every lease to drain and refuses new ones. It returns
// ErrClosed when the pipeline was already closed.
func (p *Pipeline) Close() error {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.closed = true
	return nil
}

// Dims returns the row dimensionality (queries must match it).
func (p *Pipeline) Dims() int { return p.dims }

// NumShards returns the partition count in effect.
func (p *Pipeline) NumShards() int { return p.shards.NumShards() }

// Workers returns the batch worker-pool width in effect.
func (p *Pipeline) Workers() int { return p.workers }

// Router returns the attached shard router (nil when unrouted).
func (p *Pipeline) Router() *route.Router { return p.router }

// Search answers one kNN query by fanning out to every shard and merging
// the per-shard top-k heaps into the exact global top-k. It honors ctx
// cancellation and, when Options.QueryTimeout is set, a per-query
// deadline (surfaced as ErrQueryTimeout, which still matches
// context.DeadlineExceeded); a canceled query returns the context's
// cause. With Options.Resilience set, the query first passes admission
// control (resilience.ErrOverloaded when the engine is saturated) and
// deadline-aware shedding (resilience.ErrShedDeadline when the
// remaining deadline is below the observed p95 service time); both
// reject in microseconds, before any shard work is dispatched. Search
// is safe to call concurrently.
//
// With a router attached, Search routes in the router's default mode;
// SearchMode overrides it per query.
func (p *Pipeline) Search(ctx context.Context, q []float64, k int) (*Result, error) {
	return p.SearchMode(ctx, q, k, route.ModeAuto)
}

// SearchMode is Search with an explicit routing mode: route.ModeExact
// keeps results bit-identical to the unrouted engine while skipping
// shards whose summary lower bound proves them out of the top-k;
// route.ModeApprox visits shards by sketch similarity toward the
// router's recall target; route.ModeAuto takes the router's default.
// An explicit mode on an engine without a router is ErrNoRouter.
func (p *Pipeline) SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (res *Result, err error) {
	release, err := p.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if len(q) != p.dims {
		return nil, fmt.Errorf("serve: query has %d dims, dataset has %d", len(q), p.dims)
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: need k >= 1, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Admission control: when the concurrency cap and its wait queue are
	// both full, answer "no" now — a typed rejection in microseconds —
	// instead of queueing into certain timeout and burning crossbar
	// transfers on a query that cannot finish.
	if lrelease, lerr := p.res.admit(ctx); lerr != nil {
		p.eobs.noteRejected(lerr)
		return nil, lerr
	} else if lrelease != nil {
		defer lrelease()
	}
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, p.timeout, ErrQueryTimeout)
		defer cancel()
	}
	start := time.Now()
	var root *obs.Span
	if eo := p.eobs; eo != nil {
		eo.inflight.Add(1)
		ctx, root = eo.o.Tracer().Start(ctx, "engine.search")
		root.SetAttr("k", k)
		root.SetAttr("shards", len(eo.names))
		defer func() {
			eo.inflight.Add(-1)
			eo.queries.Inc()
			eo.latency.Observe(time.Since(start).Seconds())
			if err != nil {
				eo.errors.Inc()
				root.SetAttr("error", err)
			}
			root.End()
		}()
	}
	// Deadline-aware shedding: a query whose remaining deadline is below
	// the observed p95 service time cannot finish; shed it before any
	// PIM transfer budget (Eq. 13's Tcost) is spent on it.
	if serr := p.res.checkShed(ctx); serr != nil {
		p.eobs.noteShed()
		root.Annotate("shed", obs.A("reason", serr.Error()))
		return nil, serr
	}
	vs, info, err := p.route(ctx, root, q, k, mode)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx) // a shard may have skipped its work
	}
	// Feed the shedder only with completed queries: its p95 must track
	// real service time, not the latency of rejections.
	if p.res != nil {
		p.res.shed.Observe(time.Since(start))
	}
	return p.merge(vs, k, info), nil
}

// SearchAll visits every shard and merges, with no lease, admission,
// routing or observation. It is for callbacks that run inside an
// operation already holding a lease — the standing-query requery under
// an engine's mutation lock.
func (p *Pipeline) SearchAll(ctx context.Context, q []float64, k int) ([]vec.Neighbor, error) {
	vs := make([]visit, p.shards.NumShards())
	if err := p.fanOut(ctx, nil, nil, vs, q, k, nil); err != nil {
		return nil, err
	}
	return mergeVisits(k, vs), nil
}

// visit is one shard's answer to one query; sent marks a shard the
// query was dispatched to (unsent shards were routed away).
type visit struct {
	nn       []vec.Neighbor
	meter    *arch.Meter
	fallback bool
	err      error
	sent     bool
}

// fanOut visits the shards ids (nil = all) in parallel, each filling its
// slot of vs. It returns the failed shards' errors joined in ascending
// shard id, or the context's cause as soon as ctx is done; the channel
// is buffered so a shard goroutine can always deliver and exit after the
// query gave up. eo is nil for unobserved fan-outs.
func (p *Pipeline) fanOut(ctx context.Context, eo *engineObs, root *obs.Span, vs []visit, q []float64, k int, ids []int) error {
	n := len(ids)
	if ids == nil {
		n = len(vs)
	}
	out := make(chan struct{}, n)
	for j := 0; j < n; j++ {
		i := j
		if ids != nil {
			i = ids[j]
		}
		vs[i].sent = true
		go func() {
			if ctx.Err() == nil {
				p.visit(ctx, eo, root, &vs[i], i, q, k)
			}
			out <- struct{}{}
		}()
	}
	for j := 0; j < n; j++ {
		select {
		case <-out:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	var errs []error
	for i := range vs {
		if vs[i].err != nil {
			errs = append(errs, vs[i].err)
		}
	}
	return errors.Join(errs...)
}

// visit runs one shard visit under its span and per-shard counters.
func (p *Pipeline) visit(ctx context.Context, eo *engineObs, root *obs.Span, v *visit, i int, q []float64, k int) {
	var sp *obs.Span
	if eo != nil {
		eo.shardQueries[i].Inc()
		sp = root.StartChild(eo.names[i])
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	v.nn, v.meter, v.fallback, v.err = p.shards.Visit(ctx, i, q, k)
	if eo != nil {
		if v.err != nil {
			sp.SetAttr("error", v.err)
		} else {
			annotateFaults(sp, v.meter)
		}
		if v.fallback {
			eo.fallbacks.Inc()
		}
		sp.End()
	}
}

// merge assembles the Result from the visited shards.
func (p *Pipeline) merge(vs []visit, k int, info *RouteInfo) *Result {
	res := &Result{Neighbors: mergeVisits(k, vs), Meter: arch.NewMeter(),
		ShardMeters: make([]*arch.Meter, len(vs)), Degraded: p.shards.DegradedShards(), Routed: info}
	for i, v := range vs {
		if !v.sent {
			continue // routed away: no work, nil meter
		}
		res.ShardMeters[i] = v.meter
		res.Meter.Merge(v.meter)
		if v.fallback {
			res.BreakerOpen = append(res.BreakerOpen, i)
		}
	}
	return res
}

// mergeVisits is the global top-k of the shard answers in sets: the k
// minimum under the (distance, index) total order — the order every
// searcher's TopK heap resolves ties with, which is what makes the merge
// exactly equal to a sequential scan. Each set holds one slot per shard;
// unvisited slots hold no answer.
func mergeVisits(k int, sets ...[]visit) []vec.Neighbor {
	lists := make([][]vec.Neighbor, 0, len(sets)*len(sets[0]))
	for _, vs := range sets {
		for _, v := range vs {
			lists = append(lists, v.nn)
		}
	}
	return vec.MergeNeighbors(k, lists...)
}
