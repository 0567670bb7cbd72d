package serve

import (
	"context"
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/pool"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// BatchResult is the outcome of a batch submission.
type BatchResult struct {
	// Results holds one Result per query row, in query order.
	Results []*Result
	// Meter merges every query's activity.
	Meter *arch.Meter
}

// Neighbors flattens the per-query neighbor lists (convenience for
// callers porting from knn.SearchBatch).
func (b *BatchResult) Neighbors() [][]vec.Neighbor {
	out := make([][]vec.Neighbor, len(b.Results))
	for i, r := range b.Results {
		if r != nil {
			out[i] = r.Neighbors
		}
	}
	return out
}

// SearchBatch answers a whole query matrix through the engine's bounded
// worker pool: at most Workers() queries are in flight at once,
// each fanning out to the shards, so shards stay busy while no single
// batch monopolizes the engine. Cancellation of ctx (or a per-query
// deadline) aborts the batch with the context's error. Results are
// deterministic and identical to issuing the queries sequentially.
func (p *Pipeline) SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*BatchResult, error) {
	return p.SearchBatchMode(ctx, queries, k, route.ModeAuto)
}

// SearchBatchMode is SearchBatch with an explicit routing mode (see
// SearchMode).
func (p *Pipeline) SearchBatchMode(ctx context.Context, queries *vec.Matrix, k int, mode route.Mode) (*BatchResult, error) {
	if queries == nil || queries.N == 0 {
		return &BatchResult{Meter: arch.NewMeter()}, nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: batch needs k >= 1, got %d", k)
	}
	res := &BatchResult{
		Results: make([]*Result, queries.N),
		Meter:   arch.NewMeter(),
	}
	// Batch queue-depth accounting: jobs enter the gauge on submission and
	// leave exactly once each — when a worker picks them up (JobStart) or
	// when cancellation/failure drains them (JobSkip). The pool guarantees
	// one of the two fires per job, so the gauge returns to its prior value
	// on every exit path.
	var hooks pool.Hooks
	if eo := p.eobs; eo != nil {
		eo.queueDepth.Add(int64(queries.N))
		dec := func(int) { eo.queueDepth.Add(-1) }
		hooks.JobStart = dec
		hooks.JobSkip = dec
	}
	err := pool.RunHooked(ctx, queries.N, p.workers, func(w int) (pool.Worker, error) {
		return func(qi int) error {
			r, err := p.SearchMode(ctx, queries.Row(qi), k, mode)
			if err != nil {
				return fmt.Errorf("serve: query %d: %w", qi, err)
			}
			res.Results[qi] = r
			return nil
		}, nil
	}, hooks)
	if err != nil {
		return nil, err
	}
	for _, r := range res.Results {
		res.Meter.Merge(r.Meter)
	}
	return res, nil
}
