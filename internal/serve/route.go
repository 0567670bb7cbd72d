// Shard routing: the serve-side wiring of internal/route. With
// Options.Router set, every query passes the routing stage between
// shedding and the fan-out:
//
//	acquire → admission → deadline → shed → ROUTE → fan out (visit set)
//
// Exact mode is a two-wave dispatch: the shard with the smallest summary
// lower bound is searched first to seed τ (its k-th candidate distance),
// then every remaining shard whose lower bound is ≤ τ is searched in
// parallel and the rest are skipped. Admissibility makes the skip safe:
// a skipped shard's true minimum distance is ≥ its lower bound > τ ≥ the
// final k-th distance, so none of its rows belongs in the top-k — not
// even on ties, since the exclusion is strict. Routed results are
// therefore bit-identical to the unrouted engine (differential-tested
// across all six mining tasks in route_diff_test.go).
//
// Approximate mode asks the router for the smallest shard prefix whose
// estimated similarity mass reaches the recall target and dispatches
// only that — no second wave, no exactness guarantee, a typed
// Result.Routed annotation instead. When Config.AuditEvery is set, every
// n-th approximate query also searches the skipped shards and reports
// the measured recall next to the estimate (the audit work is
// measurement overhead and deliberately excluded from the result's
// meters).
//
// A skipped shard does no work at all for that query: its goroutine is
// never started, so neither its searcher, its breaker, nor the breaker's
// host-scan fallback runs (asserted by TestRoutedSkipNeverHostScans).
package serve

import (
	"context"
	"fmt"
	"math"
	"time"

	"pimmine/internal/obs"
	"pimmine/internal/route"
)

// ErrNoRouter reports an explicit routing mode on an engine built
// without Options.Router.
var ErrNoRouter = fmt.Errorf("serve: explicit routing mode on an engine without a router")

// RouteInfo annotates a routed query's Result.
type RouteInfo struct {
	// Mode is the routing mode that served the query.
	Mode route.Mode
	// Visited and Skipped count shards dispatched and routed away.
	Visited, Skipped int
	// SkippedShards lists the routed-away shard ids (ascending).
	SkippedShards []int
	// EstRecall is the router's estimate of the answer's recall (always
	// 1 in exact mode).
	EstRecall float64
	// Audited marks an approximate query that also searched the skipped
	// shards to measure its true recall; MeasuredRecall is the audited
	// |routed top-k ∩ full top-k| / k (0 when not audited).
	Audited        bool
	MeasuredRecall float64
}

// checkRouter validates a router against the engine shape it is being
// attached to (satellite of the routing tier: disagreement is a typed
// construction-time error, never a query-time failure).
func checkRouter(r *route.Router, shards, dims int) error {
	if r == nil {
		return nil
	}
	if r.NumShards() != shards {
		return fmt.Errorf("serve: %w: router has %d, engine has %d",
			route.ErrShardMismatch, r.NumShards(), shards)
	}
	if r.Dims() != dims {
		return fmt.Errorf("serve: router built over %d dims, dataset has %d", r.Dims(), dims)
	}
	return nil
}

// route runs the routing stage and fans the query out to the visit set,
// returning one slot per shard. Unrouted pipelines fan out to everything
// with a nil RouteInfo.
func (p *Pipeline) route(ctx context.Context, root *obs.Span, q []float64, k int, mode route.Mode) ([]visit, *RouteInfo, error) {
	vs := make([]visit, p.shards.NumShards())
	fan := func(vs []visit, ids []int) error { return p.fanOut(ctx, p.eobs, root, vs, q, k, ids) }
	r := p.router
	if r == nil {
		if mode != route.ModeAuto {
			return nil, nil, ErrNoRouter
		}
		return vs, nil, fan(vs, nil)
	}
	if mode == route.ModeAuto {
		mode = r.DefaultMode()
	}
	start := time.Now()
	var info *RouteInfo
	switch mode {
	case route.ModeExact:
		order, lbs := r.ExactOrderAvail(q, p.shards.Servable)
		routeDur := time.Since(start)
		// Wave 1: the best-lower-bound servable shard seeds the pruning
		// threshold τ, its k-th candidate distance — or +Inf when it holds
		// fewer than k rows, and then nothing can be proven out.
		if err := fan(vs, order[:1]); err != nil {
			return nil, nil, err
		}
		tau := math.Inf(1)
		if nn := vs[order[0]].nn; len(nn) >= k {
			tau = nn[k-1].Dist
		}
		visit := make([]int, 0, len(order)-1)
		for _, id := range order[1:] {
			if lbs[id] <= tau {
				visit = append(visit, id)
			}
		}
		if err := fan(vs, visit); err != nil {
			return nil, nil, err
		}
		info = routeInfo(vs, route.ModeExact, 1)
		p.noteRouted(root, info, routeDur)

	case route.ModeApprox:
		ids, est := r.ApproxPlan(q, 0)
		routeDur := time.Since(start)
		if err := fan(vs, ids); err != nil {
			return nil, nil, err
		}
		info = routeInfo(vs, route.ModeApprox, est)
		if info.Skipped > 0 && r.Audit() {
			// Audit: search the skipped shards too and measure the routed
			// answer's recall against the full fan-out. The audit answers
			// are dropped — the served answer stays the routed one, and
			// its meters model the routed work.
			audit := make([]visit, len(vs))
			if fan(audit, info.SkippedShards) == nil {
				info.Audited = true
				info.MeasuredRecall = measureRecall(vs, audit, k)
			}
		}
		p.noteRouted(root, info, routeDur)

	default:
		return nil, nil, fmt.Errorf("serve: unknown routing mode %q", mode)
	}
	return vs, info, nil
}

// measureRecall computes |routed top-k ∩ full top-k| / |full top-k|,
// where the full top-k merges the routed and audited shard answers.
func measureRecall(routed, audit []visit, k int) float64 {
	got := mergeVisits(k, routed)
	full := mergeVisits(k, routed, audit)
	if len(full) == 0 {
		return 1
	}
	have := make(map[int]bool, len(got))
	for _, nn := range got {
		have[nn.Index] = true
	}
	hit := 0
	for _, nn := range full {
		if have[nn.Index] {
			hit++
		}
	}
	return float64(hit) / float64(len(full))
}

// routeInfo annotates a routed query from its fan-out slots: the shards
// it was dispatched to, and the ascending ids of the ones routed away.
func routeInfo(vs []visit, mode route.Mode, est float64) *RouteInfo {
	info := &RouteInfo{Mode: mode, EstRecall: est}
	for i, v := range vs {
		if v.sent {
			info.Visited++
		} else {
			info.SkippedShards = append(info.SkippedShards, i)
		}
	}
	info.Skipped = len(info.SkippedShards)
	return info
}

// noteRouted records one routed query on the router's cumulative stats,
// the span tree, and the pim_route_* metrics (nil-safe throughout).
func (p *Pipeline) noteRouted(root *obs.Span, info *RouteInfo, routeDur time.Duration) {
	p.router.NoteOutcome(info.Visited, info.Skipped)
	root.Annotate("routed",
		obs.A("mode", string(info.Mode)),
		obs.A("visited", info.Visited),
		obs.A("skipped", info.Skipped),
		obs.A("est_recall", info.EstRecall))
	eo := p.eobs
	if eo == nil {
		return
	}
	eo.routeQueries.Inc()
	eo.routeVisited.Add(int64(info.Visited))
	eo.routeSkipped.Add(int64(info.Skipped))
	eo.routeLatency.Observe(routeDur.Seconds())
	if info.Mode == route.ModeApprox {
		eo.routeEstRecall.Observe(info.EstRecall)
		if info.Audited {
			eo.routeAudits.Inc()
			eo.routeMeasuredRecall.Observe(info.MeasuredRecall)
		}
	}
}
