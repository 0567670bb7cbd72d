// Mutable serving: the sharded engine layered over internal/delta's
// mutable stores. Each shard owns a delta.Store (host-side delta buffer,
// tombstones, endurance-ledgered compaction) over its slice of the
// dataset; the engine owns the global id space, routing initial ids by
// contiguous range and inserted ids round-robin. Because ids are
// allocated monotonically and every store keeps its rows in ascending
// global-id order, per-shard results are canonical under (dist, id) and
// the shard merge stays exact — byte-identical to a fresh engine built
// over the merged live dataset.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// MutableOptions configures NewMutable.
type MutableOptions struct {
	// Options carries the shard count, variant, framework, capacity,
	// worker pool and observability wiring, with the same defaults as
	// the immutable engine. Options.Factory is ignored — mutable shards
	// must be rebuildable, so searchers come from the variant builder.
	Options

	// MaxDelta and MaxTombstoneRatio are per-shard compaction triggers
	// (see delta.Options; defaults 256 rows and 0.25).
	MaxDelta          int
	MaxTombstoneRatio float64
	// AutoCompact lets each store compact in the background when a
	// trigger trips; otherwise call Compact explicitly.
	AutoCompact bool
	// WriteBudget, when positive, meters compaction endurance: each
	// shard gets a wear-leveling ledger whose tiles allow this many
	// programming cycles. PIM variants price images in Theorem 4
	// crossbars; host variants charge one tile per image against a
	// two-tile (double-buffered) ledger. Zero disables metering.
	WriteBudget uint32

	// Durability, when Dir is set, makes the engine crash-safe: every
	// accepted mutation is appended to a write-ahead log before it is
	// applied, Checkpoint writes atomic snapshots that truncate the
	// log, and RecoverMutable rebuilds a byte-identical engine from the
	// latest snapshot plus the log tail (see internal/wal).
	Durability Durability
	// StandingBuffer is the per-subscription event channel capacity for
	// standing queries (default 16; see internal/standing).
	StandingBuffer int
}

// MutableEngine is the sharded mutable query engine: Search/SearchBatch
// stay lock-free against Insert/Update/Delete and background
// compaction, per shard, via delta's epoch snapshots. Mutations
// serialize on the engine's routing lock (mutation throughput is not
// the design target; query concurrency is). Options.Resilience engages
// admission and shedding but no per-shard breakers: compaction rebuilds
// searchers each epoch, so a fault-storming epoch already heals through
// the delta layer's degraded-rebuild path rather than a breaker's
// cool-down.
type MutableEngine struct {
	*pipeline
	d      int
	opts   MutableOptions
	stores []*delta.Store
	// bounds[i]..bounds[i+1] is shard i's initial contiguous id range.
	bounds []int

	mu     sync.Mutex // guards nextID, rr, routes, and store mutation order
	nextID int
	rr     int
	routes map[int]int // inserted id → shard

	degraded []bool // per shard: variant build failed, serving host scan

	// log is the write-ahead log (nil when Durability.Dir is unset).
	// Mutations append under e.mu before applying, so log order equals
	// apply order and replay reconstructs the exact mutation sequence.
	log  *wal.Log
	walM *wal.Metrics

	// standing is the continuous-query registry; its hooks run under
	// e.mu after each applied mutation, so every subscription observes
	// the mutations in the order the engine applied them.
	standing *standing.Registry
}

// NewMutable partitions data row-wise into per-shard mutable stores.
// Rows keep their ids (0..N-1) across mutations and compactions;
// inserts extend the id space monotonically.
func NewMutable(data *vec.Matrix, opts MutableOptions) (*MutableEngine, error) {
	if data == nil || data.N == 0 {
		return nil, fmt.Errorf("serve: empty dataset")
	}
	opts.Options = opts.Options.withDefaults(data.N)
	s := opts.Shards
	e := &MutableEngine{
		d:        data.D,
		opts:     opts,
		stores:   make([]*delta.Store, s),
		nextID:   data.N,
		routes:   make(map[int]int),
		degraded: make([]bool, s),
	}
	build, err := e.start()
	if err != nil {
		return nil, err
	}
	reg := opts.Obs.Registry()
	base, rem := data.N/s, data.N%s
	lo := 0
	for id := 0; id < s; id++ {
		rows := base
		if id < rem {
			rows++
		}
		dopts, err := e.storeOptions(build, id, lo, reg)
		if err != nil {
			return nil, err
		}
		if e.stores[id], err = delta.New(data.Slice(lo, lo+rows), dopts); err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", id, err)
		}
		e.bounds = append(e.bounds, lo)
		lo += rows
	}
	e.bounds = append(e.bounds, lo)
	if err := e.initStanding(reg); err != nil {
		return nil, err
	}
	if opts.Durability.Dir != "" {
		if err := e.initDurabilityFresh(reg); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// start builds the engine's query pipeline over its (still empty) shard
// slots and resolves the variant builder its stores are made with.
func (e *MutableEngine) start() (capFactory, error) {
	var err error
	if e.pipeline, err = NewPipeline((*mutableShards)(e), e.d, e.opts.Options); err != nil {
		return nil, err
	}
	return variantBuilder(e.opts.Options)
}

// storeOptions configures shard id's delta store; idOffset is the
// global id of its first initial row.
func (e *MutableEngine) storeOptions(build capFactory, id, idOffset int, reg *obs.Registry) (delta.Options, error) {
	opts := e.opts
	// Graceful degradation mirrors the immutable engine: a variant build
	// failure (e.g. dead crossbars after fault injection) falls back to
	// the exact host scan for that epoch and is reported, never fatal.
	// The ledger charge stands — the programming attempt happened.
	factory := func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
		srch, err := build(m, capacityN)
		if err != nil {
			e.degraded[id] = true
			return knn.NewStandard(m), nil
		}
		return srch, nil
	}
	dopts := delta.Options{
		Factory:           factory,
		MaxDelta:          opts.MaxDelta,
		MaxTombstoneRatio: opts.MaxTombstoneRatio,
		AutoCompact:       opts.AutoCompact,
		CapacityRows:      shardCapacity(opts.Options),
		IDOffset:          idOffset,
	}
	if reg != nil {
		dopts.Metrics = delta.NewMetrics(reg, obs.Label{Key: "shard", Value: fmt.Sprint(id)})
	}
	if r := opts.Router; r != nil {
		// Summary maintenance rides the store's mutation lock: every
		// insert/update conservatively grows the shard's summary before
		// the row becomes visible, and every compaction rebuilds it tight
		// from the fresh live base image — so the published summary
		// always covers the published snapshot and exact routing stays
		// admissible through churn.
		dopts.OnMutate = func(v []float64) { r.Observe(id, v) }
		dopts.OnCompact = func(base *vec.Matrix) { r.Refresh(id, base) }
	}
	if opts.WriteBudget > 0 {
		var err error
		if opts.Framework != nil {
			model := pim.ModelFor(opts.Framework.Cfg)
			dopts.Model = &model
			dopts.Ledger, err = delta.NewLedger(opts.Framework.Cfg.NumCrossbars(), opts.WriteBudget)
		} else {
			// Host variants: image-granularity accounting with double
			// buffering (old epoch holds its tile until the last reader
			// drains).
			dopts.Ledger, err = delta.NewLedger(2, opts.WriteBudget)
		}
		if err != nil {
			return delta.Options{}, err
		}
	}
	return dopts, nil
}

// mutableShards is the MutableEngine's ShardSet: one delta store per
// shard, searched lock-free against mutations and compaction.
type mutableShards MutableEngine

func (s *mutableShards) NumShards() int        { return len(s.stores) }
func (s *mutableShards) Servable(int) bool     { return true }
func (s *mutableShards) DegradedShards() []int { return (*MutableEngine)(s).DegradedShards() }

func (s *mutableShards) Visit(_ context.Context, i int, q []float64, k int) ([]vec.Neighbor, *arch.Meter, bool, error) {
	m := arch.NewMeter()
	nn, err := s.stores[i].Search(q, k, m)
	if err != nil {
		return nil, m, false, fmt.Errorf("serve: shard %d: %w", i, err)
	}
	return nn, m, false, nil
}

// DegradedShards returns the ids of shards whose current epoch serves
// the host fallback.
func (e *MutableEngine) DegradedShards() []int {
	var out []int
	for i, d := range e.degraded {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// shardOf locates the store owning an id: initial ids by range,
// inserted ids through the routing table. Returns -1 when unknown.
func (e *MutableEngine) shardOf(id int) int {
	if id >= 0 && id < e.bounds[len(e.bounds)-1] {
		// bounds is ascending; the owning shard is the last lower bound.
		return sort.SearchInts(e.bounds, id+1) - 1
	}
	if sh, ok := e.routes[id]; ok {
		return sh
	}
	return -1
}

// checkVec pre-validates what the store would reject, so a durable
// engine never logs a record its store then refuses — log order must
// equal apply order or replay would diverge from the served history.
func (e *MutableEngine) checkVec(v []float64) error {
	if len(v) != e.d {
		return fmt.Errorf("serve: vector has %d dims, dataset has %d", len(v), e.d)
	}
	if err := quant.CheckVec(v); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// logMutation appends one record to the WAL (no-op when not durable).
// Called under e.mu, after validation and before the store apply.
func (e *MutableEngine) logMutation(op wal.Op, sh, id int, v []float64) error {
	if e.log == nil {
		return nil
	}
	if _, err := e.log.Append(wal.Record{Op: op, Shard: sh, ID: id, Vec: v}); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	return nil
}

// Insert adds a vector under a fresh global id, placing it round-robin
// across shards. The vector must be normalized (quant.CheckVec). On a
// durable engine the insert is logged (and, under wal.SyncAlways,
// fsynced) before it is applied.
func (e *MutableEngine) Insert(v []float64) (int, error) {
	release, err := e.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	if err := e.checkVec(v); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	sh := e.rr
	if err := e.logMutation(wal.OpInsert, sh, id, v); err != nil {
		return 0, err
	}
	if err := e.stores[sh].InsertAt(id, v); err != nil {
		return 0, err
	}
	e.nextID++
	e.rr = (e.rr + 1) % len(e.stores)
	e.routes[id] = sh
	e.standing.OnInsert(id, v)
	return id, nil
}

// Update replaces the vector of an existing id in place (the id, and
// with it the tie order, is preserved).
func (e *MutableEngine) Update(id int, v []float64) error {
	release, err := e.Acquire()
	if err != nil {
		return err
	}
	defer release()
	if err := e.checkVec(v); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sh := e.shardOf(id)
	if sh < 0 || !e.stores[sh].Has(id) {
		return fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if err := e.logMutation(wal.OpUpdate, sh, id, v); err != nil {
		return err
	}
	if err := e.stores[sh].Update(id, v); err != nil {
		return err
	}
	e.standing.OnUpdate(id, v)
	return nil
}

// Delete removes an id.
func (e *MutableEngine) Delete(id int) error {
	release, err := e.Acquire()
	if err != nil {
		return err
	}
	defer release()
	e.mu.Lock()
	defer e.mu.Unlock()
	sh := e.shardOf(id)
	if sh < 0 || !e.stores[sh].Has(id) {
		return fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if err := e.logMutation(wal.OpDelete, sh, id, nil); err != nil {
		return err
	}
	if err := e.stores[sh].Delete(id); err != nil {
		return err
	}
	delete(e.routes, id)
	e.standing.OnDelete(id)
	return nil
}

// Compact folds every shard's delta and tombstones into fresh base
// images (shards compact independently; a shard with nothing to fold is
// a no-op). The first error aborts and is returned; remaining shards
// keep their current epochs.
func (e *MutableEngine) Compact(meter *arch.Meter) error {
	release, err := e.Acquire()
	if err != nil {
		return err
	}
	defer release()
	for i, st := range e.stores {
		if err := st.Compact(meter); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates per-shard delta statistics.
func (e *MutableEngine) Stats() []delta.Stats {
	out := make([]delta.Stats, len(e.stores))
	for i, st := range e.stores {
		out[i] = st.Stats()
	}
	return out
}

// Materialize merges every shard's live rows into one matrix in
// ascending global id order with the id directory — the dataset an
// equivalent fresh engine would be built from.
func (e *MutableEngine) Materialize() (*vec.Matrix, []int) {
	type part struct {
		m   *vec.Matrix
		ids []int
	}
	parts := make([]part, len(e.stores))
	total := 0
	for i, st := range e.stores {
		m, ids := st.Materialize()
		parts[i] = part{m, ids}
		total += len(ids)
	}
	// K-way merge by ascending id (per-shard lists are already sorted).
	ids := make([]int, 0, total)
	out := vec.NewMatrix(total, e.d)
	cursor := make([]int, len(parts))
	for row := 0; row < total; row++ {
		best := -1
		for i, p := range parts {
			if cursor[i] >= len(p.ids) {
				continue
			}
			if best < 0 || p.ids[cursor[i]] < parts[best].ids[cursor[best]] {
				best = i
			}
		}
		p := parts[best]
		copy(out.Row(row), p.m.Row(cursor[best]))
		ids = append(ids, p.ids[cursor[best]])
		cursor[best]++
	}
	return out, ids
}

// Close shuts every shard store down (draining background compactions),
// closes the standing-query registry, and — on a durable engine —
// flushes and fsyncs the write-ahead log before returning, so every
// acknowledged mutation is on disk when Close hands control back.
// Idempotent: repeated Close on a non-durable engine returns nil (the
// original contract); on a durable engine it returns ErrClosed, so a
// caller retrying after a failed flush can tell "already shut down"
// from a fresh flush failure.
func (e *MutableEngine) Close() error {
	if e.pipeline.Close() != nil {
		if e.log != nil {
			return ErrClosed
		}
		// Non-durable: closing again is harmless and keeps Close's
		// contract symmetric with the immutable engine.
		return nil
	}
	if e.standing != nil {
		e.standing.Close()
	}
	for _, st := range e.stores {
		st.Close()
	}
	if e.log != nil {
		// The log's Close fsyncs the active segment first; a failure
		// surfaces here (the engine is closed regardless — a second
		// Close reports ErrClosed, never retries the flush).
		if err := e.log.Close(); err != nil {
			return fmt.Errorf("serve: wal close: %w", err)
		}
	}
	return nil
}

// Rows returns the current live row count across shards.
func (e *MutableEngine) Rows() int {
	total := 0
	for _, st := range e.stores {
		total += st.Stats().LiveRows
	}
	return total
}
