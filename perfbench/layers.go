package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/cluster"
	"pimmine/internal/core"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/netserve"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/route"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// plainRun is the --trace 0 run: setup (setupReps times), one load
// phase over the whole window with tracing off, then recovery.
func (b *bench) plainRun(window time.Duration) (values, error) {
	st, setups, heap, err := b.setup()
	if err != nil {
		return nil, err
	}
	var recov []time.Duration
	if b.sp.kind == kindImmutable {
		// Half the rebuilds run before the load and half after, so their
		// median spans the host's state over the whole run.
		if st, recov, err = b.recoverN(st, recoverRep/2, recov); err != nil {
			return nil, err
		}
	}
	ph, err := b.drive(st, window)
	if err != nil {
		st.stop()
		return nil, err
	}
	recov = append(recov, ph.recovery...)
	if b.sp.kind != kindCluster {
		if st, recov, err = b.recoverN(st, recoverRep-len(recov), recov); err != nil {
			return nil, err
		}
		if b.shadow != nil {
			if err := b.probeShadow(st, "after recovery"); err != nil {
				st.stop()
				return nil, err
			}
		}
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	if len(ph.lat) == 0 || len(recov) == 0 {
		return nil, fmt.Errorf("window too short: %d answered requests, %d recoveries", len(ph.lat), len(recov))
	}
	p50s, p99s, goodputs := ph.subWindows(subWindows)
	lateP50, lateP99 := quantile(durMs(ph.late), 0.5), quantile(durMs(ph.late), 0.99)
	wl := durMs(ph.wlat)
	fmt.Fprintf(b.log, "perfbench %s seed %d: %d requests answered (%d query vectors, %d failed), %d writes (%d failed), window %.2fs\n",
		b.sp.name, b.seed, len(ph.lat), ph.queries, ph.qfail, ph.writes, ph.wfail, ph.elapsed.Seconds())
	fmt.Fprintf(b.log, "  write_p50_ms %.4f  write_p99_ms %.4f  (%d acknowledged writes, from due time)\n",
		quantile(wl, 0.5), quantile(wl, 0.99), len(wl))
	if b.sp.subscribe {
		fmt.Fprintf(b.log, "  standing subscription: %d events, %d dropped\n", ph.events, ph.dropped)
	}
	fmt.Fprintf(b.log, "  generator lateness p50 %.4f ms, p99 %.4f ms (%d samples)\n", lateP50, lateP99, len(ph.late))
	fmt.Fprintf(b.log, "  recovery samples %v, setup samples %v\n", recov, setups)
	fmt.Fprintf(b.log, "  sub-window p50 %.4g, p99 %.4g (median %.4f ms), goodput %.5g\n", p50s, p99s, quantile(p99s, 0.5), goodputs)
	if p50 := quantile(durMs(ph.lat), 0.5); b.sp.rate > 0 && lateP50 > 0.5*p50 {
		// The open-loop generator fell behind its schedule: its own
		// delay, not the program, explains the latency.
		b.mismatch("invalid run: generator lateness p50 %.3f ms against latency p50 %.3f ms", lateP50, p50)
	}
	return values{
		"setup_s":        medianSec(setups),
		"latency_p50_ms": quantile(p50s, 0.5),
		"goodput_qps":    quantile(goodputs, 0.5),
		"heap_mb":        heap,
		"recovery_s":     medianSec(recov),
	}, nil
}

// tracedRun is the --trace 1 run. The window is split: half plain (with
// benchmark-side shard timers), half with the engine's and server's
// Observer set. Idle probes of each layer's public calls follow on the
// workload's own inputs.
func (b *bench) tracedRun(window time.Duration) (values, error) {
	half := window / 2
	vlA := &visitLog{}
	stA, err := b.build(nil, vlA)
	if err != nil {
		return nil, err
	}
	if b.sp.kind != kindImmutable {
		b.shadow = newShadow(b.data)
	}
	phA, err := b.drive(stA, half)
	if err != nil {
		stA.stop()
		return nil, err
	}
	ip, err := b.probeInProcess(stA, vlA)
	if err != nil {
		stA.stop()
		return nil, err
	}
	if err := stA.stop(); err != nil {
		return nil, err
	}

	o := obs.New(obs.Config{SampleRate: 64})
	vlB := &visitLog{}
	stB, err := b.build(o, vlB)
	if err != nil {
		return nil, err
	}
	if b.sp.kind != kindImmutable {
		b.shadow = newShadow(b.data)
	}
	phB, err := b.drive(stB, half)
	if err != nil {
		stB.stop()
		return nil, err
	}
	var ship cluster.ShipStats
	var compactions int
	if stB.eng.clu != nil {
		ship = stB.eng.clu.ShipStats()
	}
	if stB.eng.mut != nil {
		for _, s := range stB.eng.mut.Stats() {
			compactions += s.Compactions
		}
		// One recovery so the log's replay time is observed.
		if stB, _, err = b.recoverOnce(stB); err != nil {
			return nil, err
		}
	}
	if err := stB.stop(); err != nil {
		return nil, err
	}
	reg, err := readRegistry(o)
	if err != nil {
		return nil, err
	}
	lp, err := b.probeLayers()
	if err != nil {
		return nil, err
	}

	v := values{}
	// netserve
	if v["netserve.decode_us"], v["netserve.encode_us"], err = b.probeCodec(); err != nil {
		return nil, err
	}
	v["netserve.wire_us"] = ip.wireUs
	v["netserve.bytes_per_query"] = float64(phB.reqBytes+phB.respBytes) / math.Max(1, float64(phB.queries))
	// resilience
	engineMean := ip.searchMeanS
	if n, s := reg.hist("pim_serve_query_latency_seconds"); n > 0 {
		engineMean = s / float64(n)
	}
	netMean := 0.0
	if n, s := reg.hist("pim_net_latency_seconds"); n > 0 {
		netMean = s / float64(n)
	}
	v["resilience.queue_wait_us"] = math.Max(0, netMean-engineMean) * 1e6
	rejected := reg.counter("pim_net_rejected_total") + reg.counter("pim_serve_shed_total") + reg.counter("pim_serve_rejected_total")
	v["resilience.rejected_ratio"] = rejected / math.Max(1, float64(phB.queries))
	// serve
	v["serve.search_us"] = ip.searchUs
	v["serve.pipeline_us"] = ip.pipelineUs
	if ip.pipelineUs == 0 {
		v["serve.pipeline_us"] = math.Max(0, ip.searchUs-lp.slowestVisitUs)
	}
	v["serve.allocs_per_query"] = ip.allocs
	v["serve.alloc_bytes_per_query"] = ip.allocBytes
	// route
	v["route.plan_us"] = lp.planUs
	v["route.shards_visited"] = ip.visited
	// knn
	v["knn.shard_visit_us"], v["knn.prune_ratio.pim"], v["knn.prune_ratio.host"], v["knn.prune_ratio.total"] = vlB.summary()
	if v["knn.shard_visit_us"] == 0 {
		v["knn.shard_visit_us"] = lp.visitUs
		v["knn.prune_ratio.pim"], v["knn.prune_ratio.host"], v["knn.prune_ratio.total"] = lp.prunePIM, lp.pruneHost, lp.pruneTotal
	}
	// pim and arch (modeled, printed beside the measured figures)
	v["pim.queryall_us"] = lp.queryAllUs
	v["pim.dots_per_query"] = ip.dots
	v["pim.program_ms"] = lp.programMs
	v["arch.modeled_us_per_query"] = ip.modeledUs
	v["arch.pim_buf_bytes_per_query"] = ip.pimBufBytes
	v["arch.host_bytes_per_query"] = ip.hostBytes
	v["vec.merge_us"] = lp.mergeUs
	// delta
	v["delta.compactions"] = float64(compactions)
	v["delta.compaction_ms"] = lp.compactionMs
	if n, s := reg.hist("pim_delta_compaction_seconds"); n > 0 {
		v["delta.compaction_ms"] = s / float64(n) * 1e3
	}
	v["delta.rows_mean"] = mean(phB.deltaRows)
	// wal
	v["wal.fsync_ms"], v["wal.bytes_per_write"], v["wal.replay_ms"] = lp.fsyncMs, lp.walBytes, lp.replayMs
	if n, s := reg.hist("pim_wal_fsync_seconds"); n > 0 {
		v["wal.fsync_ms"] = s / float64(n) * 1e3
		v["wal.bytes_per_write"] = reg.counter("pim_wal_appended_bytes_total") / math.Max(1, reg.counter("pim_wal_appends_total"))
	}
	if n, s := reg.hist("pim_wal_replay_seconds"); n > 0 {
		v["wal.replay_ms"] = s / float64(n) * 1e3
	}
	// standing
	v["standing.requeries_per_write"] = reg.counter("pim_standing_requeries_total") / math.Max(1, float64(phB.writes))
	v["standing.dropped_events"] = reg.counter("pim_standing_dropped_events_total")
	// cluster
	v["cluster.search_us"] = lp.clusterSearchUs
	if b.sp.kind == kindCluster {
		v["cluster.search_us"] = ip.searchUs
	}
	v["cluster.failovers"] = reg.counter("pim_cluster_failovers_total")
	v["cluster.noquorum"] = reg.counter("pim_cluster_noquorum_total")
	v["cluster.degraded_writes"] = reg.counter("pim_cluster_degraded_writes_total")
	v["cluster.ship_bytes"], v["cluster.ship_modeled_ms"], v["cluster.repair_ms"] = lp.shipBytes, lp.shipModeledMs, lp.repairMs
	if len(phB.recovery) > 0 {
		v["cluster.ship_bytes"] = float64(ship.Bytes)
		v["cluster.ship_modeled_ms"] = ship.ModeledNs / 1e6
		v["cluster.repair_ms"] = medianSec(phB.recovery) * 1e3
	}
	// obs and the generator
	pA, pB := quantile(durMs(phA.lat), 0.5), quantile(durMs(phB.lat), 0.5)
	if pA == 0 || pB == 0 {
		return nil, fmt.Errorf("window too short: %d plain and %d traced answers", len(phA.lat), len(phB.lat))
	}
	v["obs.trace_overhead"] = pB / pA
	_, p99s, _ := phA.subWindows(subWindows)
	v["bench.latency_p99_ms"] = quantile(p99s, 0.5)
	v["bench.late_p99_ms"] = quantile(durMs(phA.late), 0.99)
	// Workloads without writes report the delta layer's own write path
	// (the probe store's Insert/Delete) instead.
	v["bench.write_p50_ms"], v["bench.write_p99_ms"] = lp.writeP50Ms, lp.writeP99Ms
	if wl := durMs(phA.wlat); len(wl) > 0 {
		v["bench.write_p50_ms"], v["bench.write_p99_ms"] = quantile(wl, 0.5), quantile(wl, 0.99)
	}
	return v, nil
}

// visitLog times every shard searcher call through a wrapping factory
// and accumulates the searchers' per-stage statistics.
type visitLog struct {
	mu      sync.Mutex
	visits  []float64 // µs
	slowest time.Duration
	stages  stageTotals
}

func (vl *visitLog) wrap(s knn.Searcher) knn.Searcher { return &timedSearcher{Searcher: s, vl: vl} }

// takeSlowest returns and resets the slowest visit seen since the last
// call (probes run one query at a time).
func (vl *visitLog) takeSlowest() time.Duration {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	d := vl.slowest
	vl.slowest = 0
	return d
}

func (vl *visitLog) add(d time.Duration, stages []knn.StageStat) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.visits = append(vl.visits, float64(d)/float64(time.Microsecond))
	if d > vl.slowest {
		vl.slowest = d
	}
	vl.stages.add(stages)
}

// stageTotals sums filter-and-refine stage counts over visits: rows
// entering and leaving the PIM bound, the host bounds, and the whole
// filter (the last stage of a visit is the exact refine; the stages
// before it are bounds).
type stageTotals struct {
	pimIn, pimOut, hostIn, hostOut, firstIn, refineIn int64
}

func (t *stageTotals) add(stages []knn.StageStat) {
	if len(stages) < 2 {
		return
	}
	refine := int64(stages[len(stages)-1].In)
	t.firstIn += int64(stages[0].In)
	t.refineIn += refine
	host := false
	for _, s := range stages[:len(stages)-1] {
		if strings.HasPrefix(s.Name, "LBPIM") {
			t.pimIn += int64(s.In)
			t.pimOut += int64(s.Out)
			continue
		}
		if !host {
			t.hostIn += int64(s.In)
			host = true
		}
	}
	if host {
		t.hostOut += refine
	}
}

// ratios are the PIM, host and total prune ratios (0 when no searcher
// reported stages).
func (t *stageTotals) ratios() (pim, host, total float64) {
	return pruned(t.pimIn, t.pimOut), pruned(t.hostIn, t.hostOut), pruned(t.firstIn, t.refineIn)
}

func pruned(in, out int64) float64 {
	if in == 0 {
		return 0
	}
	return 1 - float64(out)/float64(in)
}

// summary is the median visit time and the PIM, host and total prune
// ratios (0 when no searcher reported stages).
func (vl *visitLog) summary() (visitUs, pimRatio, hostRatio, total float64) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	pimRatio, hostRatio, total = vl.stages.ratios()
	return quantile(vl.visits, 0.5), pimRatio, hostRatio, total
}

type timedSearcher struct {
	knn.Searcher
	vl *visitLog
}

func (t *timedSearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	t0 := time.Now()
	nn := t.Searcher.Search(q, k, m)
	d := time.Since(t0)
	t.vl.add(d, t.LastStages())
	return nn
}

func (t *timedSearcher) LastStages() []knn.StageStat {
	if s, ok := t.Searcher.(knn.Stager); ok {
		return s.LastStages()
	}
	return nil
}

// inProcess is what the idle probes of the serving engine measured.
type inProcess struct {
	searchUs, searchMeanS, pipelineUs, wireUs float64
	allocs, allocBytes                        float64
	visited, dots                             float64
	modeledUs, pimBufBytes, hostBytes         float64
}

// probeInProcess runs the pool's queries one at a time against the idle
// engine, in process and over the wire, and reads each Result's shard
// meters (the arch model's inputs).
func (b *bench) probeInProcess(st *stack, vl *visitLog) (*inProcess, error) {
	ctx := context.Background()
	search := st.eng.Search
	cfg := arch.Default()
	const n = 64
	var searchT, pipe, meanT []float64
	out := &inProcess{}
	for i := 0; i < n; i++ {
		q := b.pool.Row(i)
		vl.takeSlowest()
		t0 := time.Now()
		res, err := search(ctx, q, k)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if slow := vl.takeSlowest(); slow > 0 {
			pipe = append(pipe, float64(d-slow)/float64(time.Microsecond))
		}
		meanT = append(meanT, d.Seconds())
		if b.sp.batch == 1 {
			searchT = append(searchT, float64(d)/float64(time.Microsecond))
		}
		visited := float64(st.eng.NumShards())
		if res.Routed != nil {
			visited = float64(res.Routed.Visited)
		}
		out.visited += visited / n
		var crit float64
		for _, m := range res.ShardMeters {
			if m == nil {
				continue
			}
			_, tot := cfg.TimeMeter(m)
			crit = math.Max(crit, tot.Total())
			c := m.Total()
			out.dots += float64(c.PIMBufBytes) / 8 / n
			out.pimBufBytes += float64(c.PIMBufBytes) / n
			out.hostBytes += float64(c.SeqBytes+c.RandBytes) / n
		}
		out.modeledUs += crit / 1e3 / n
	}
	if b.sp.batch > 1 {
		for j := range b.batch {
			t0 := time.Now()
			if _, err := st.eng.imm.SearchBatch(ctx, b.batchRows(j), k); err != nil {
				return nil, err
			}
			searchT = append(searchT, float64(time.Since(t0))/float64(time.Microsecond)/float64(b.sp.batch))
		}
	}
	out.searchUs = quantile(searchT, 0.5)
	out.searchMeanS = mean(meanT)
	out.pipelineUs = quantile(pipe, 0.5)

	// Allocations per query, from MemStats deltas over sequential calls.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if _, err := search(ctx, b.pool.Row(i), k); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	out.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n

	// Wire cost: the HTTP round trip minus the in-process call on the
	// same input, alternating so both see the same machine state.
	var rt, ipT []float64
	for i := 0; i < n; i++ {
		if b.sp.batch > 1 {
			j := i % len(b.batch)
			t0 := time.Now()
			if _, status, _, err := st.searchBatch(ctx, "", b.batch[j]); err != nil || status != 200 {
				return nil, fmt.Errorf("wire probe: status %d: %v", status, err)
			}
			rt = append(rt, float64(time.Since(t0)))
			t0 = time.Now()
			if _, err := st.eng.imm.SearchBatch(ctx, b.batchRows(j), k); err != nil {
				return nil, err
			}
			ipT = append(ipT, float64(time.Since(t0)))
		} else {
			t0 := time.Now()
			if _, status, _, err := st.search(ctx, "", b.single[i]); err != nil || status != 200 {
				return nil, fmt.Errorf("wire probe: status %d: %v", status, err)
			}
			rt = append(rt, float64(time.Since(t0)))
			t0 = time.Now()
			if _, err := search(ctx, b.pool.Row(i), k); err != nil {
				return nil, err
			}
			ipT = append(ipT, float64(time.Since(t0)))
		}
	}
	out.wireUs = math.Max(0, quantile(rt, 0.5)-quantile(ipT, 0.5)) / 1e3
	b.count(2*n, 0)
	return out, nil
}

// probeCodec times the wire codec on the workload's own bodies: decode
// of its request bodies and encode of its responses, per query.
func (b *bench) probeCodec() (decodeUs, encodeUs float64, err error) {
	var dec, enc []float64
	for pass := 0; pass < 4; pass++ {
		if b.sp.batch > 1 {
			for j, body := range b.batch {
				t0 := time.Now()
				_, err := netserve.DecodeBatchRequest(body, b.data.D, netserve.DefaultMaxK, netserve.DefaultMaxBatch)
				if err != nil {
					return 0, 0, err
				}
				dec = append(dec, us(time.Since(t0))/float64(b.sp.batch))
				lines := make([]netserve.BatchLine, b.sp.batch)
				for i := range lines {
					lines[i] = netserve.BatchLine{Index: i, Result: &netserve.QueryResponse{Neighbors: wire(b.refs[j*b.sp.batch+i])}}
				}
				var buf bytes.Buffer
				t0 = time.Now()
				e := json.NewEncoder(&buf)
				for i := range lines {
					if err := e.Encode(lines[i]); err != nil {
						return 0, 0, err
					}
				}
				enc = append(enc, us(time.Since(t0))/float64(b.sp.batch))
			}
			continue
		}
		for i, body := range b.single {
			t0 := time.Now()
			if _, err := netserve.DecodeQueryRequest(body, b.data.D, netserve.DefaultMaxK); err != nil {
				return 0, 0, err
			}
			dec = append(dec, us(time.Since(t0)))
			resp := netserve.QueryResponse{Neighbors: wire(b.refs[i])}
			var buf bytes.Buffer
			t0 = time.Now()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				return 0, 0, err
			}
			enc = append(enc, us(time.Since(t0)))
		}
	}
	return quantile(dec, 0.5), quantile(enc, 0.5), nil
}

func wire(nn []vec.Neighbor) []netserve.NeighborWire {
	out := make([]netserve.NeighborWire, len(nn))
	for i, n := range nn {
		out[i] = netserve.NeighborWire{Index: n.Index, Dist: n.Dist}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerProbe holds timings of single layers' public calls on the
// workload's rows, split into the workload's shards.
type layerProbe struct {
	planUs, mergeUs, queryAllUs, programMs float64
	visitUs, slowestVisitUs                float64
	prunePIM, pruneHost, pruneTotal        float64
	compactionMs                           float64
	writeP50Ms, writeP99Ms                 float64
	fsyncMs, walBytes, replayMs            float64
	clusterSearchUs, repairMs              float64
	shipBytes, shipModeledMs               float64
}

// split partitions rows into contiguous shards exactly as the engines do.
func split(m *vec.Matrix, shards int) ([]*vec.Matrix, []int) {
	base, rem := m.N/shards, m.N%shards
	var parts []*vec.Matrix
	var offs []int
	lo := 0
	for id := 0; id < shards; id++ {
		n := base
		if id < rem {
			n++
		}
		parts = append(parts, m.Slice(lo, lo+n))
		offs = append(offs, lo)
		lo += n
	}
	return parts, offs
}

// probeLayers times each layer's public calls on the workload's rows.
func (b *bench) probeLayers() (*layerProbe, error) {
	const nq = 32
	lp := &layerProbe{}
	parts, offs := split(b.data, b.sp.shards)

	// route: exact visit order from a router over the workload's shards.
	rt, err := route.New(route.Config{Mode: route.ModeExact}, parts)
	if err != nil {
		return nil, err
	}
	var plan []float64
	for i := 0; i < nq; i++ {
		t0 := time.Now()
		rt.ExactOrder(b.pool.Row(i))
		plan = append(plan, us(time.Since(t0)))
	}
	lp.planUs = quantile(plan, 0.5)

	// knn and vec: the workload variant's searcher per shard, and the
	// top-k merge of their lists.
	capN := b.shardCapacity()
	var searchers []knn.Searcher
	for _, p := range parts {
		s, err := b.newSearcher(p, capN)
		if err != nil {
			return nil, err
		}
		searchers = append(searchers, s)
	}
	meter := arch.NewMeter()
	var visits, slowest, merges []float64
	var stages stageTotals
	for i := 0; i < nq; i++ {
		q := b.pool.Row(i)
		lists := make([][]vec.Neighbor, len(parts))
		var slow float64
		for s, srch := range searchers {
			meter.Reset()
			t0 := time.Now()
			nn := srch.Search(q, k, meter)
			d := us(time.Since(t0))
			visits = append(visits, d)
			slow = math.Max(slow, d)
			if st, ok := srch.(knn.Stager); ok {
				stages.add(st.LastStages())
			}
			lists[s] = make([]vec.Neighbor, len(nn))
			for j, n := range nn {
				lists[s][j] = vec.Neighbor{Index: n.Index + offs[s], Dist: n.Dist}
			}
		}
		slowest = append(slowest, slow)
		const reps = 20
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			vec.MergeNeighbors(k, lists...)
		}
		merges = append(merges, us(time.Since(t0))/reps)
	}
	lp.visitUs, lp.slowestVisitUs, lp.mergeUs = quantile(visits, 0.5), quantile(slowest, 0.5), quantile(merges, 0.5)
	lp.prunePIM, lp.pruneHost, lp.pruneTotal = stages.ratios()

	if err := b.probePIM(lp, parts, capN); err != nil {
		return nil, err
	}
	if err := b.probeDelta(lp, parts[0], capN); err != nil {
		return nil, err
	}
	if err := b.probeWAL(lp, parts[0]); err != nil {
		return nil, err
	}
	return lp, b.probeCluster(lp)
}

// probePIM programs each shard's LB_PIM-FNN payloads (Theorem 4 sizing,
// as the fnn-pim searcher does) and times QueryAll over them, on every
// workload — host workloads included, where it should not move.
func (b *bench) probePIM(lp *layerProbe, parts []*vec.Matrix, capN int) error {
	fw, err := core.New(arch.Default(), quant.DefaultAlpha, pim.ModeExact)
	if err != nil {
		return err
	}
	var prog, qa []float64
	for _, p := range parts {
		eng, err := fw.NewEngine()
		if err != nil {
			return err
		}
		segs := eng.Model().ChooseS(capN, pim.Divisors(p.D), 2)
		if segs == 0 {
			return fmt.Errorf("pim probe: no compressed dimensionality fits N=%d", capN)
		}
		t0 := time.Now()
		ix, err := pimbound.BuildFNN(p, fw.Quant, segs)
		if err != nil {
			return err
		}
		mu, err := eng.Program("probe/mu", p.N, segs, 2, ix.MuFloor)
		if err != nil {
			return err
		}
		sg, err := eng.Program("probe/sigma", p.N, segs, 2, ix.SigmaFloor)
		if err != nil {
			return err
		}
		prog = append(prog, float64(time.Since(t0))/float64(time.Millisecond))
		qMu, qSg := make([]uint32, segs), make([]uint32, segs)
		var dMu, dSg []int64
		for i := 0; i < 32; i++ {
			qf, err := ix.QueryInto(b.pool.Row(i), qMu, qSg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if dMu, err = eng.QueryAll(nil, "probe", mu, qf.MuFloor, dMu); err != nil {
				return err
			}
			if dSg, err = eng.QueryAll(nil, "probe", sg, qf.SigmaFloor, dSg); err != nil {
				return err
			}
			qa = append(qa, us(time.Since(t0)))
		}
	}
	lp.programMs, lp.queryAllUs = quantile(prog, 0.5), quantile(qa, 0.5)
	return nil
}

// probeDelta fills one shard's delta store with the workload's write
// vectors and times the compaction that re-programs its base.
func (b *bench) probeDelta(lp *layerProbe, part *vec.Matrix, capN int) error {
	st, err := delta.New(part, delta.Options{Factory: b.newSearcher, CapacityRows: capN})
	if err != nil {
		return err
	}
	defer st.Close()
	var writes []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := st.Insert(b.writes.Row(i)); err != nil {
			return err
		}
		writes = append(writes, float64(time.Since(t0))/float64(time.Millisecond))
	}
	for id := 0; id < 16; id++ {
		t0 := time.Now()
		if err := st.Delete(id); err != nil {
			return err
		}
		writes = append(writes, float64(time.Since(t0))/float64(time.Millisecond))
	}
	lp.writeP50Ms, lp.writeP99Ms = quantile(writes, 0.5), quantile(writes, 0.99)
	t0 := time.Now()
	if err := st.Compact(nil); err != nil {
		return err
	}
	lp.compactionMs = float64(time.Since(t0)) / float64(time.Millisecond)
	return nil
}

// probeWAL appends the shard's rows to a SyncAlways log (each append
// pays an fsync) and replays it.
func (b *bench) probeWAL(lp *layerProbe, part *vec.Matrix) error {
	dir, err := os.MkdirTemp(b.tmp, "walprobe-")
	if err != nil {
		return err
	}
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	const n = 32
	var fs []float64
	var bytesN int
	for i := 0; i < n; i++ {
		rec := wal.Record{Op: wal.OpInsert, ID: i, Vec: part.Row(i)}
		bytesN += len(wal.AppendRecord(nil, rec))
		t0 := time.Now()
		if _, err := l.Append(rec); err != nil {
			l.Close()
			return err
		}
		fs = append(fs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	if err := l.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	replayed := 0
	if err := wal.Replay(dir, 0, func(int64, wal.Record) error { replayed++; return nil }); err != nil {
		return err
	}
	lp.replayMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if replayed != n {
		return fmt.Errorf("wal probe replayed %d of %d records", replayed, n)
	}
	lp.fsyncMs, lp.walBytes = quantile(fs, 0.5), float64(bytesN)/n
	return nil
}

// probeCluster places the workload's rows on a 4-node, R=2 cluster and
// times searches, then one kill → writes → restore → Repair cycle.
func (b *bench) probeCluster(lp *layerProbe) error {
	eng, err := cluster.New(b.data, cluster.Options{Nodes: 4, Replicas: 2, Shards: 8})
	if err != nil {
		return err
	}
	defer eng.Close()
	ctx := context.Background()
	var ts []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := eng.Search(ctx, b.pool.Row(i), k); err != nil {
			return err
		}
		ts = append(ts, us(time.Since(t0)))
	}
	lp.clusterSearchUs = quantile(ts, 0.5)
	if err := eng.KillNode(1); err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		if _, err := eng.Insert(b.writes.Row(i)); err != nil {
			return err
		}
	}
	if err := eng.RestoreNode(1); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := eng.Repair(); err != nil {
		return err
	}
	lp.repairMs = float64(time.Since(t0)) / float64(time.Millisecond)
	s := eng.ShipStats()
	lp.shipBytes, lp.shipModeledMs = float64(s.Bytes), s.ModeledNs/1e6
	return nil
}

// registry is a parsed snapshot of an obs registry (its JSON
// exposition): counters and gauges as numbers, histograms as objects.
type registry map[string]json.RawMessage

func readRegistry(o *obs.Observer) (registry, error) {
	var buf bytes.Buffer
	if err := o.Registry().WriteJSON(&buf); err != nil {
		return nil, err
	}
	r := registry{}
	return r, json.Unmarshal(buf.Bytes(), &r)
}

// family reports whether key is a series of the named metric.
func family(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// counter sums a counter over all its label sets.
func (r registry) counter(name string) float64 {
	total := 0.0
	for key, raw := range r {
		var v float64
		if family(key, name) && json.Unmarshal(raw, &v) == nil {
			total += v
		}
	}
	return total
}

// hist sums a histogram's count and sum over all its label sets.
func (r registry) hist(name string) (int64, float64) {
	var n int64
	var s float64
	for key, raw := range r {
		var h struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if family(key, name) && json.Unmarshal(raw, &h) == nil {
			n += h.Count
			s += h.Sum
		}
	}
	return n, s
}
