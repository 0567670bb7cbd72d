// Package serve implements the sharded concurrent query engine: the
// serving layer that turns the per-query searchers of internal/knn into
// a multi-tenant kNN service.
//
// The dataset is partitioned row-wise into S shards. Each shard owns an
// independent searcher — for the PIM variants, an independent PIM array
// sized with Theorem 4 against the shard's slice of the full-scale
// cardinality, mirroring how near-data systems partition a corpus across
// memory modules and merge per-partition top-k results (Lee et al.,
// "Application-Driven Near-Data Processing for Similarity Search"). A
// query fans out to all shards, each shard computes its local top-k under
// its own activity meter, and the per-shard heaps are merged into the
// exact global top-k: every global neighbor is in its shard's local top-k
// under the same (distance, index) total order, so the merge loses
// nothing and sharded results are bit-identical to a sequential scan
// (property-tested in serve_test.go).
//
// Shard searchers reuse internal buffers and meters are not
// goroutine-safe, so each shard serializes access with a mutex; queries
// pipeline across shards, which is where batch throughput comes from.
// A shard whose searcher construction fails degrades gracefully to the
// host-side exact scan for that shard — results stay exact, the
// degradation is reported on every Result, and the engine keeps serving.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/core"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// Variant names the per-shard searcher algorithm.
type Variant string

// The ED searcher variants of internal/knn. PIM variants require
// Options.Framework; each shard then programs its own PIM array.
const (
	VariantStandard    Variant = "standard"
	VariantOST         Variant = "ost"
	VariantSM          Variant = "sm"
	VariantFNN         Variant = "fnn"
	VariantStandardPIM Variant = "standard-pim"
	VariantOSTPIM      Variant = "ost-pim"
	VariantSMPIM       Variant = "sm-pim"
	VariantFNNPIM      Variant = "fnn-pim"
)

// Variants lists every supported variant (host variants first).
func Variants() []Variant {
	return []Variant{
		VariantStandard, VariantOST, VariantSM, VariantFNN,
		VariantStandardPIM, VariantOSTPIM, VariantSMPIM, VariantFNNPIM,
	}
}

// Factory builds the searcher for one shard. Custom factories override
// Options.Variant (tests use them to force the degraded path; callers can
// plug in searchers the stock variants don't cover).
type Factory func(shard *vec.Matrix, shardID int) (knn.Searcher, error)

// Options configures New.
type Options struct {
	// Shards is the partition count S; defaults to GOMAXPROCS, clamped to
	// the dataset cardinality.
	Shards int
	// Variant selects the per-shard searcher (default VariantStandard).
	Variant Variant
	// Framework supplies the hardware model and quantizer for the PIM
	// variants; each shard gets its own array via Framework.NewEngine.
	Framework *core.Framework
	// CapacityN is the full-scale cardinality for Theorem 4 sizing,
	// divided evenly across shards (each shard's integer vectors must fit
	// its own crossbar budget); defaults to the dataset's N.
	CapacityN int
	// Workers bounds the batch worker pool (how many queries are in
	// flight at once); defaults to GOMAXPROCS.
	Workers int
	// QueryTimeout, when positive, is the per-query deadline applied on
	// top of the caller's context.
	QueryTimeout time.Duration
	// Factory overrides Variant when non-nil.
	Factory Factory
	// Obs, when non-nil, wires the engine into the observability
	// subsystem (internal/obs): query counters, latency histograms,
	// per-shard fan-out counters and meter/fault collectors register with
	// its registry, and sampled queries record an engine → shard →
	// bound-eval → pim-dot → refine span tree. Nil keeps the hot path
	// observation-free.
	Obs *obs.Observer
	// Router, when non-nil, engages the shard-routing tier
	// (internal/route): every query consults the per-shard summaries and
	// is dispatched only to shards that can contribute to its top-k.
	// The router's shard count must agree with the engine's — New rejects
	// a disagreement with route.ErrShardMismatch at construction time;
	// when Shards is zero the engine adopts the router's count. Exact
	// mode keeps results bit-identical to the unrouted engine;
	// approximate mode trades exactness for latency and annotates every
	// Result with Result.Routed. A routed-away shard is never touched at
	// all for that query — not even its breaker's host-scan fallback runs.
	Router *route.Router
	// Resilience, when non-nil, engages the overload-protection layer
	// (internal/resilience): admission control with a bounded wait queue
	// in front of Search/SearchBatch, deadline-aware shedding against
	// the observed p95 service time, per-shard circuit breakers that
	// reroute a fault-storming shard to its exact host scan, and a
	// jittered-backoff retry budget for transient PIM faults. Rejected
	// and shed queries return typed errors (resilience.ErrOverloaded,
	// resilience.ErrShedDeadline); admitted queries always return exact
	// results. When MaxConcurrent is set, Workers is clamped to it so a
	// batch cannot reject its own jobs.
	Resilience *resilience.Config
}

// shard is one row-range of the dataset with its private searcher.
// searcher, meter and the searcher's internal buffers are guarded by mu:
// one query at a time per shard, with queries pipelining across shards.
type shard struct {
	id     int
	offset int // global index of local row 0
	data   *vec.Matrix

	mu       sync.Mutex
	searcher knn.Searcher
	meter    *arch.Meter // cumulative shard activity
	degraded bool

	// Overload protection (nil/unset unless Options.Resilience engages
	// it): breaker gates the PIM path, host is the exact host-scan
	// fallback served while the breaker is open, retry is the shared
	// engine-wide transient-fault budget, and retries counts what it
	// pays out (nil without Options.Obs). The search flow lives in
	// resilience.go.
	breaker *resilience.Breaker
	host    knn.Searcher
	retry   *resilience.RetryBudget
	retries *obs.Counter
}

// staticShards is the immutable engine's ShardSet.
type staticShards []*shard

func (s staticShards) NumShards() int    { return len(s) }
func (s staticShards) Servable(int) bool { return true }

func (s staticShards) Visit(ctx context.Context, i int, q []float64, k int) ([]vec.Neighbor, *arch.Meter, bool, error) {
	nn, m, breakerOpen := s[i].search(ctx, q, k)
	return nn, m, breakerOpen, nil
}

// DegradedShards returns the ids of shards that fell back to the host
// exact scan at build time (nil when none did).
func (s staticShards) DegradedShards() []int {
	var out []int
	for _, sh := range s {
		if sh.degraded {
			out = append(out, sh.id)
		}
	}
	return out
}

// ErrClosed reports an operation on an engine after Close.
var ErrClosed = fmt.Errorf("serve: engine closed")

// Engine is the sharded concurrent query engine: static per-shard
// searchers under the shared query pipeline. It is safe for concurrent
// use by multiple goroutines.
type Engine struct {
	*pipeline
	data   *vec.Matrix
	shards staticShards
}

// Close drains in-flight queries and shuts the engine down; subsequent
// queries return ErrClosed. It is idempotent — a second (or concurrent)
// Close neither panics nor deadlocks, it just waits for the same drain.
func (e *Engine) Close() error {
	_ = e.pipeline.Close() // ErrClosed only on a repeat, which is a no-op here
	return nil
}

// withDefaults resolves the defaults New and NewMutable share for a
// dataset of rows rows: the shard count (the router's, else GOMAXPROCS,
// clamped to the rows), the Theorem 4 capacity and the variant.
func (o Options) withDefaults(rows int) Options {
	if o.Shards <= 0 {
		if o.Router != nil {
			o.Shards = o.Router.NumShards()
		} else {
			o.Shards = runtime.GOMAXPROCS(0)
		}
	}
	if o.Shards > rows {
		o.Shards = rows
	}
	if o.CapacityN <= 0 {
		o.CapacityN = rows
	}
	if o.Variant == "" {
		o.Variant = VariantStandard
	}
	return o
}

// New partitions data row-wise and builds one searcher per shard. A shard
// whose construction fails falls back to the exact host scan and is
// reported by DegradedShards (and on every Result); only configuration
// errors — unknown variant, missing framework, empty data — fail New.
func New(data *vec.Matrix, opts Options) (*Engine, error) {
	if data == nil || data.N == 0 {
		return nil, fmt.Errorf("serve: empty dataset")
	}
	opts = opts.withDefaults(data.N)
	factory := opts.Factory
	if factory == nil {
		var err error
		factory, err = variantFactory(opts)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{data: data}
	s := opts.Shards
	base, rem := data.N/s, data.N%s
	lo := 0
	for id := 0; id < s; id++ {
		rows := base
		if id < rem {
			rows++
		}
		sh := &shard{id: id, offset: lo, data: data.Slice(lo, lo+rows), meter: arch.NewMeter()}
		searcher, err := factory(sh.data, id)
		if err != nil {
			// Graceful degradation: this shard serves the exact host
			// scan; results stay exact, throughput modeling degrades.
			searcher = knn.NewStandard(sh.data)
			sh.degraded = true
		}
		sh.searcher = searcher
		e.shards = append(e.shards, sh)
		lo += rows
	}
	var err error
	if e.pipeline, err = NewPipeline(e.shards, data.D, opts); err != nil {
		return nil, err
	}
	if e.res != nil {
		for _, sh := range e.shards {
			if sh.degraded {
				continue // already serving the host scan permanently
			}
			sh.retry = e.res.retry
			if opts.Resilience.Breaker.FailureThreshold > 0 {
				sh.breaker = resilience.NewBreaker(opts.Resilience.Breaker)
				sh.host = knn.NewStandard(sh.data)
			}
		}
	}
	if opts.Obs != nil {
		reg := opts.Obs.Registry()
		retries := reg.Counter("pim_serve_pim_retries_total",
			"Transient-fault PIM retries spent from the engine retry budget.")
		for _, sh := range e.shards {
			sh.retries = retries
		}
		reg.RegisterCollector(e.collectMetrics)
	}
	return e, nil
}

// checkAlive gates a freshly built PIM shard searcher on its array's
// power-on self test: a shard whose array has dead crossbars (fault
// injection, internal/fault) reports an error here, which New turns into
// the graceful host-scan fallback — the caller sees exact results and a
// degraded-shard report, never an error. Shards whose arrays are healthy
// but merely faulty (stuck/drifted cells) keep their PIM searcher: the
// widened bounds already preserve exactness.
func checkAlive(s knn.Searcher, eng *pim.Engine, err error) (knn.Searcher, error) {
	if err != nil {
		return nil, err
	}
	if n := eng.DeadCrossbars(); n > 0 {
		return nil, fmt.Errorf("serve: shard PIM array has %d dead crossbars", n)
	}
	return s, nil
}

// capFactory builds a searcher over a matrix with an explicit Theorem 4
// sizing cardinality. It is the capacity-parameterized core both the
// static per-shard Factory and the mutable engine's compaction rebuilds
// (internal/delta, which re-runs dimension selection as occupancy
// changes) are derived from.
type capFactory func(m *vec.Matrix, capacityN int) (knn.Searcher, error)

// variantBuilder maps a Variant to a capacity-parameterized searcher
// constructor. PIM variants build a fresh array per call — programming
// is what burns endurance, so reuse is deliberately impossible here and
// accounted for by the caller (the delta ledger or the one-shot shard
// build).
func variantBuilder(opts Options) (capFactory, error) {
	fw := opts.Framework
	// onArray wraps a PIM searcher constructor: each call programs a fresh
	// engine and refuses one with dead crossbars.
	onArray := func(v Variant, build func(eng *pim.Engine, m *vec.Matrix, capacityN int) (knn.Searcher, error)) (capFactory, error) {
		if fw == nil {
			return nil, fmt.Errorf("serve: variant %q needs Options.Framework", v)
		}
		return func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			eng, err := fw.NewEngine()
			if err != nil {
				return nil, err
			}
			s, err := build(eng, m, capacityN)
			return checkAlive(s, eng, err)
		}, nil
	}
	switch v := opts.Variant; v {
	case VariantStandard:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewStandard(m), nil
		}, nil
	case VariantOST:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewOST(m, m.D/2)
		}, nil
	case VariantSM:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewSM(m, bound.FNNLevels(m.D)[2])
		}, nil
	case VariantFNN:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewFNN(m)
		}, nil
	case VariantStandardPIM:
		return onArray(v, func(eng *pim.Engine, m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			return knn.NewStandardPIM(eng, m, fw.Quant, capacityN)
		})
	case VariantOSTPIM:
		return onArray(v, func(eng *pim.Engine, m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			return knn.NewOSTPIM(eng, m, fw.Quant, m.D/2, capacityN)
		})
	case VariantSMPIM:
		return onArray(v, func(eng *pim.Engine, m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			return knn.NewSMPIM(eng, m, fw.Quant, bound.FNNLevels(m.D)[2], capacityN)
		})
	case VariantFNNPIM:
		return onArray(v, func(eng *pim.Engine, m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			return knn.NewFNNPIM(eng, m, fw.Quant, capacityN)
		})
	default:
		return nil, fmt.Errorf("serve: unknown variant %q", opts.Variant)
	}
}

// shardCapacity is the Theorem 4 sizing per shard: each shard answers
// for an even share of the full-scale cardinality on its own array.
func shardCapacity(opts Options) int {
	return (opts.CapacityN + opts.Shards - 1) / opts.Shards
}

// variantFactory maps a Variant to a per-shard searcher constructor with
// the shard capacity fixed at engine-build time.
func variantFactory(opts Options) (Factory, error) {
	build, err := variantBuilder(opts)
	if err != nil {
		return nil, err
	}
	shardCap := shardCapacity(opts)
	return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
		return build(m, shardCap)
	}, nil
}

// Rows returns the dataset cardinality.
func (e *Engine) Rows() int { return e.data.N }

// ShardSizes returns the row count of every shard.
func (e *Engine) ShardSizes() []int {
	sizes := make([]int, len(e.shards))
	for i, sh := range e.shards {
		sizes[i] = sh.data.N
	}
	return sizes
}

// DegradedShards returns the ids of shards serving the host fallback
// (nil when every shard built its configured searcher).
func (e *Engine) DegradedShards() []int { return e.shards.DegradedShards() }

// Meter returns a merged snapshot of the cumulative per-shard activity
// since the engine was built.
func (e *Engine) Meter() *arch.Meter {
	total := arch.NewMeter()
	for _, sh := range e.shards {
		sh.mu.Lock()
		total.Merge(sh.meter)
		sh.mu.Unlock()
	}
	return total
}

// Result is one query's answer.
type Result struct {
	// Neighbors is the exact global top-k, ascending by (distance, index).
	Neighbors []vec.Neighbor
	// Meter merges the per-shard activity this query caused.
	Meter *arch.Meter
	// ShardMeters holds each shard's private activity for this query
	// (indexed by shard id). Shards run in parallel, so the query's
	// modeled latency is the maximum over shards — the merged Meter
	// models total work, not the critical path.
	ShardMeters []*arch.Meter
	// Degraded lists shards that served the host fallback for this query.
	Degraded []int
	// BreakerOpen lists, ascending, the shards a fallback served for
	// this query: the exact host scan behind an open circuit breaker, or
	// on a cluster a replica fail-over (results are still exact; only
	// throughput modeling degrades).
	BreakerOpen []int
	// Routed annotates how the routing tier handled this query (nil when
	// the engine has no router). Skipped shards have nil ShardMeters
	// entries — they did no work at all.
	Routed *RouteInfo
}
