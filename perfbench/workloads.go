package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/cluster"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/knn"
	"pimmine/internal/netserve"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// engineKind selects which engine a workload serves.
type engineKind int

const (
	kindImmutable engineKind = iota // serve.Engine
	kindMutable                     // serve.MutableEngine with a WAL
	kindCluster                     // cluster.Engine
)

// spec is one workload's shape. Every input is generated from the seed
// (MSD profile, d=420).
type spec struct {
	name      string
	kind      engineKind
	rows      int
	shards    int
	variant   serve.Variant
	batch     int           // queries per request; 1 = /v1/search
	clients   int           // closed-loop readers; 0 = open loop at rate
	rate      float64       // open-loop arrivals per second
	writeRate float64       // in-process Insert/Update/Delete per second
	limit     time.Duration // per-request latency limit for goodput
	grouped   bool          // rows grouped by generator cluster
	routed    bool          // exact-mode sketch router
	subscribe bool          // one standing kNN subscription
	nodes     int           // cluster nodes
	replicas  int           // cluster R
}

const (
	k            = 10  // neighbors per query
	poolSize     = 256 // distinct queries per run
	probeSize    = 16  // queries checked at each quiescent point
	setupReps    = 9   // constructions per run; setup_s is their median
	recoverRep   = 9   // recoveries per run on the single-engine workloads
	subWindows   = 5   // latency and goodput are medians over sub-windows
	killsPerNode = 3   // cluster-failover kill → restore+repair cycles per node
)

var specs = map[string]spec{
	"pim-batch": {
		name: "pim-batch", kind: kindImmutable, rows: 2000, shards: 2,
		variant: serve.VariantFNNPIM, batch: 8, clients: 2, limit: 100 * time.Millisecond,
	},
	"host-point": {
		name: "host-point", kind: kindImmutable, rows: 1600, shards: 4,
		variant: serve.VariantStandard, batch: 1, rate: 250, limit: 20 * time.Millisecond,
		grouped: true, routed: true,
	},
	"churn-durable": {
		name: "churn-durable", kind: kindMutable, rows: 2000, shards: 2,
		variant: serve.VariantFNNPIM, batch: 1, clients: 1, writeRate: 100, limit: 20 * time.Millisecond,
		subscribe: true,
	},
	"cluster-failover": {
		name: "cluster-failover", kind: kindCluster, rows: 4000, shards: 8,
		variant: serve.VariantStandard, batch: 1, clients: 1, writeRate: 100, limit: 20 * time.Millisecond,
		nodes: 4, replicas: 2,
	},
}

// tenants of host-point and their share of arrivals (hot:cold skew).
var tenantMix = []struct {
	name  string
	share float64
}{{"hot", 0.7}, {"cold-a", 0.15}, {"cold-b", 0.15}}

// engine is the in-process surface all three engines share.
type engine interface {
	Search(ctx context.Context, q []float64, k int) (*serve.Result, error)
	NumShards() int
	Close() error
}

// engines holds the engine a stack serves, plus its concrete type for
// the calls only that kind has.
type engines struct {
	engine
	imm   *serve.Engine
	mut   *serve.MutableEngine
	clu   *cluster.Engine
	mopts serve.MutableOptions // RecoverMutable needs the same options
}

// bench is one run's generated inputs and accounting.
type bench struct {
	sp     spec
	seed   int64
	log    io.Writer
	data   *vec.Matrix
	pool   *vec.Matrix      // query pool
	refs   [][]vec.Neighbor // exact answers of the pool on data
	single [][]byte         // /v1/search body per pool query
	batch  [][]byte         // /v1/search/batch bodies; body j holds pool rows j*sp.batch onward
	writes *vec.Matrix      // vectors for inserts and updates
	fw     *core.Framework
	tmp    string
	shadow *shadow // acknowledged rows (mutable and cluster workloads)

	// tamper, when set, alters every decoded answer before the
	// exactness gate sees it (the self-check's corrupted answer).
	tamper func(*netserve.QueryResponse)

	mu         sync.Mutex
	attempted  int64
	failed     int64
	mismatches []string
	logged     int
}

// newBench generates the workload's inputs and the exact answers the
// run is checked against; none of this is timed.
func newBench(sp spec, seed int64, log io.Writer) (*bench, error) {
	prof, err := dataset.ByName("MSD")
	if err != nil {
		return nil, err
	}
	ds := dataset.Generate(prof, sp.rows, seed)
	b := &bench{sp: sp, seed: seed, log: log, data: ds.X}
	if sp.grouped {
		b.data = groupByLabel(ds)
	}
	b.pool = ds.Queries(poolSize, seed+1)
	b.writes = ds.Queries(1024, seed+2)
	scan := knn.NewStandard(b.data)
	for i := 0; i < poolSize; i++ {
		q := b.pool.Row(i)
		b.refs = append(b.refs, append([]vec.Neighbor(nil), scan.Search(q, k, arch.NewMeter())...))
		body, err := json.Marshal(netserve.QueryRequest{Query: q, K: k})
		if err != nil {
			return nil, err
		}
		b.single = append(b.single, body)
	}
	if sp.batch > 1 {
		for lo := 0; lo+sp.batch <= poolSize; lo += sp.batch {
			req := netserve.BatchRequest{K: k}
			for i := lo; i < lo+sp.batch; i++ {
				req.Queries = append(req.Queries, b.pool.Row(i))
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			b.batch = append(b.batch, body)
		}
	}
	if sp.variant == serve.VariantFNNPIM {
		if b.fw, err = core.New(arch.Default(), quant.DefaultAlpha, pim.ModeExact); err != nil {
			return nil, err
		}
	}
	if b.tmp, err = os.MkdirTemp("", "perfbench-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.tmp) }

// groupByLabel reorders rows by generator cluster, so contiguous shards
// are content-local and the sketch router can skip shards.
func groupByLabel(ds *dataset.Dataset) *vec.Matrix {
	m := vec.NewMatrix(ds.X.N, ds.X.D)
	i := 0
	for c := 0; c < ds.Profile.Clusters; c++ {
		for r := 0; r < ds.X.N; r++ {
			if ds.Labels[r] == c {
				copy(m.Row(i), ds.X.Row(r))
				i++
			}
		}
	}
	return m
}

func (b *bench) count(attempted, failed int64) {
	b.mu.Lock()
	b.attempted += attempted
	b.failed += failed
	b.mu.Unlock()
}

// logFailure reports the first few failed operations on stderr.
func (b *bench) logFailure(what string, status int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.logged < 5 {
		b.logged++
		fmt.Fprintf(b.log, "perfbench: %s failed: status %d: %v\n", what, status, err)
	}
}

func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// check applies the exactness gate to one served answer.
func (b *bench) check(resp *netserve.QueryResponse, want []vec.Neighbor, what string) bool {
	if b.tamper != nil {
		b.tamper(resp)
	}
	if !sameAnswer(resp.Neighbors, want) {
		b.mismatch("%s: served %v, exact scan %v", what, resp.Neighbors, want)
		return false
	}
	return true
}

// tenants provisions host-point's tenants: no quotas, equal weights.
func (b *bench) tenants() []netserve.TenantConfig {
	if b.sp.rate == 0 {
		return nil
	}
	var out []netserve.TenantConfig
	for _, t := range tenantMix {
		out = append(out, netserve.TenantConfig{Name: t.name})
	}
	return out
}

// batchRows is the query matrix of batch body j.
func (b *bench) batchRows(j int) *vec.Matrix {
	return b.pool.Slice(j*b.sp.batch, (j+1)*b.sp.batch)
}

// shardCapacity is serve's Theorem 4 sizing share per shard.
func (b *bench) shardCapacity() int { return (b.data.N + b.sp.shards - 1) / b.sp.shards }

// newSearcher builds the workload variant's searcher over m.
func (b *bench) newSearcher(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
	if b.sp.variant != serve.VariantFNNPIM {
		return knn.NewStandard(m), nil
	}
	eng, err := b.fw.NewEngine()
	if err != nil {
		return nil, err
	}
	s, err := knn.NewFNNPIM(eng, m, b.fw.Quant, capacityN)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// build constructs the workload's engine and serves it. o and vl are
// nil on plain runs; the traced run sets the observer on engine and
// server and wraps each shard searcher with a timer (vl).
func (b *bench) build(o *obs.Observer, vl *visitLog) (*stack, error) {
	sp := b.sp
	rc := resilience.Default(runtime.GOMAXPROCS(0))
	base := serve.Options{Shards: sp.shards, Variant: sp.variant, Framework: b.fw, Resilience: &rc, Obs: o}
	switch sp.kind {
	case kindImmutable:
		if sp.routed {
			r, err := route.NewEven(route.Config{Mode: route.ModeExact}, b.data, sp.shards)
			if err != nil {
				return nil, err
			}
			base.Router = r
		}
		if vl != nil {
			capN := b.shardCapacity()
			base.Factory = func(m *vec.Matrix, _ int) (knn.Searcher, error) {
				s, err := b.newSearcher(m, capN)
				if err != nil {
					return nil, err
				}
				return vl.wrap(s), nil
			}
		}
		eng, err := serve.New(b.data, base)
		if err != nil {
			return nil, err
		}
		return startStack(netserve.Options{Engine: eng, Tenants: b.tenants(), Obs: o}, engines{engine: eng, imm: eng})
	case kindMutable:
		dir, err := os.MkdirTemp(b.tmp, "wal-")
		if err != nil {
			return nil, err
		}
		mo := serve.MutableOptions{Options: base, AutoCompact: true, Durability: serve.Durability{Dir: dir}}
		eng, err := serve.NewMutable(b.data, mo)
		if err != nil {
			return nil, err
		}
		return startStack(netserve.Options{Mutable: eng, Obs: o}, engines{engine: eng, mut: eng, mopts: mo})
	default:
		co := cluster.Options{Nodes: sp.nodes, Replicas: sp.replicas, Shards: sp.shards, Obs: o}
		if vl != nil {
			co.Factory = func(m *vec.Matrix, _ int) (knn.Searcher, error) { return vl.wrap(knn.NewStandard(m)), nil }
		}
		eng, err := cluster.New(b.data, co)
		if err != nil {
			return nil, err
		}
		return startStack(netserve.Options{Cluster: eng, Obs: o}, engines{engine: eng, clu: eng})
	}
}

// setup builds the stack setupReps times and keeps the last one; it
// returns every construction time and the live heap the kept stack
// added (after a forced GC).
func (b *bench) setup() (*stack, []time.Duration, float64, error) {
	runtime.GC()
	heap0 := liveHeap()
	var st *stack
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, nil, 0, err
			}
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = b.build(nil, nil); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0))
	}
	if b.sp.kind != kindImmutable {
		b.shadow = newShadow(b.data)
	}
	runtime.GC()
	return st, times, float64(liveHeap()-heap0) / (1 << 20), nil
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// phase is what one load phase measured.
type phase struct {
	window    time.Duration
	elapsed   time.Duration
	lat       []time.Duration // successful search requests
	samples   []sample        // every search request, for sub-window statistics
	late      []time.Duration // generator lateness: send time minus due time
	wlat      []time.Duration // acknowledged writes, from their due time
	recovery  []time.Duration // in-window recoveries (cluster repairs)
	queries   int64           // query vectors sent
	good      int64           // answered (exactly, where checked) within the limit
	writes    int64
	wfail     int64
	qfail     int64
	reqBytes  int64
	respBytes int64
	events    int64 // standing-subscription events received
	dropped   int64 // events the subscription reported dropped
	deltaRows []float64
}

// sample is one search request: when it completed (from the start of
// the phase), its latency, and how many of its query vectors count
// toward goodput.
type sample struct {
	at, lat time.Duration
	good    int64
	ok      bool
}

// subWindows splits the phase into n equal sub-windows and returns each
// one's latency p50 and p99 (ms, successful requests) and goodput (1/s).
// Reported figures are medians over the sub-windows, so one burst of
// interference from outside the program moves one sub-window, not the
// run.
func (p *phase) subWindows(n int) (p50, p99, goodput []float64) {
	lats := make([][]float64, n)
	good := make([]int64, n)
	for _, s := range p.samples {
		i := int(int64(s.at) * int64(n) / int64(p.window))
		if i >= n {
			i = n - 1
		}
		good[i] += s.good
		if s.ok {
			lats[i] = append(lats[i], float64(s.lat)/float64(time.Millisecond))
		}
	}
	for i := 0; i < n; i++ {
		p50 = append(p50, quantile(lats[i], 0.5))
		p99 = append(p99, quantile(lats[i], 0.99))
		goodput = append(goodput, float64(good[i])/(p.window.Seconds()/float64(n)))
	}
	return p50, p99, goodput
}

// recorder collects a phase's samples from concurrent goroutines.
type recorder struct {
	mu    sync.Mutex
	start time.Time
	p     phase
}

func (r *recorder) search(lat time.Duration, queries, good, failed int64, reqB, respB int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.p.queries += queries
	r.p.good += good
	r.p.qfail += failed
	r.p.reqBytes += int64(reqB)
	r.p.respBytes += int64(respB)
	r.p.samples = append(r.p.samples, sample{at: time.Since(r.start), lat: lat, good: good, ok: ok})
	if ok {
		r.p.lat = append(r.p.lat, lat)
	}
}

func (r *recorder) lateness(d time.Duration) {
	r.mu.Lock()
	r.p.late = append(r.p.late, d)
	r.mu.Unlock()
}

// drive runs the workload's load against st for window.
func (b *bench) drive(st *stack, window time.Duration) (*phase, error) {
	start := time.Now()
	end := start.Add(window)
	rec := &recorder{start: start, p: phase{window: window}}
	var err error
	switch {
	case b.sp.batch > 1:
		b.closedBatch(st, end, rec)
	case b.sp.rate > 0:
		b.openPoint(st, start, end, rec)
	default:
		err = b.churn(st, start, end, rec)
	}
	rec.p.elapsed = time.Since(start)
	b.count(rec.p.queries+rec.p.writes, rec.p.qfail+rec.p.wfail)
	return &rec.p, err
}

// closedBatch is pim-batch's load: sp.clients closed-loop clients each
// posting batch requests back to back until end.
func (b *bench) closedBatch(st *stack, end time.Time, rec *recorder) {
	var wg sync.WaitGroup
	for c := 0; c < b.sp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*101 + int64(c)))
			var answered time.Time // a closed-loop request is due when the previous answer arrives
			for time.Now().Before(end) {
				j := rng.Intn(len(b.batch))
				t0 := time.Now()
				if !answered.IsZero() {
					rec.lateness(t0.Sub(answered))
				}
				lines, status, n, err := st.searchBatch(context.Background(), "", b.batch[j])
				answered = time.Now()
				lat := answered.Sub(t0)
				nq := int64(b.sp.batch)
				if err != nil || status != 200 || len(lines) != b.sp.batch {
					b.logFailure("batch", status, err)
					rec.search(lat, nq, 0, nq, len(b.batch[j]), n, false)
					continue
				}
				var exact, failed int64
				for i, l := range lines {
					switch {
					case l.Error != nil || l.Result == nil:
						failed++
					case b.check(l.Result, b.refs[j*b.sp.batch+i], fmt.Sprintf("batch %d line %d", j, i)):
						exact++
					}
				}
				good := int64(0)
				if lat <= b.sp.limit {
					good = exact
				}
				rec.search(lat, nq, good, failed, len(b.batch[j]), n, failed == 0)
			}
		}(c)
	}
	wg.Wait()
}

// openPoint is host-point's load: seeded Poisson arrivals at sp.rate,
// each sent when due regardless of outstanding requests, timed from its
// due time, tagged with a tenant drawn from the hot:cold mix.
func (b *bench) openPoint(st *stack, start, end time.Time, rec *recorder) {
	rng := rand.New(rand.NewSource(b.seed*131 + 7))
	var wg sync.WaitGroup
	at := 0.0
	for {
		at += rng.ExpFloat64() / b.sp.rate
		due := start.Add(time.Duration(at * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		qi := rng.Intn(poolSize)
		tenant := pickTenant(rng.Float64())
		time.Sleep(time.Until(due))
		rec.lateness(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, status, n, err := st.search(context.Background(), tenant, b.single[qi])
			lat := time.Since(due)
			if err != nil || status != 200 || resp == nil {
				b.logFailure("search", status, err)
				rec.search(lat, 1, 0, 1, len(b.single[qi]), n, false)
				return
			}
			good := int64(0)
			if b.check(resp, b.refs[qi], fmt.Sprintf("query %d", qi)) && lat <= b.sp.limit {
				good = 1
			}
			rec.search(lat, 1, good, 0, len(b.single[qi]), n, true)
		}()
	}
	wg.Wait()
}

func pickTenant(u float64) string {
	for _, t := range tenantMix {
		if u < t.share {
			return t.name
		}
		u -= t.share
	}
	return tenantMix[len(tenantMix)-1].name
}

// writeEngine is the mutation surface of the mutable and cluster
// engines.
type writeEngine interface {
	Insert(v []float64) (int, error)
	Update(id int, v []float64) error
	Delete(id int) error
}

// churn is the load of churn-durable and cluster-failover: one
// closed-loop HTTP reader, one in-process writer at sp.writeRate
// (Insert/Update/Delete 50/25/25, timed from due time), and — on
// churn-durable — a standing kNN subscription on the reader's
// connection. The writer pauses at quiescent points to check a probe
// set against the shadow copy of every acknowledged write; on
// cluster-failover it also kills a node and later restores and repairs
// it, at op counts drawn from the seed.
func (b *bench) churn(st *stack, start, end time.Time, rec *recorder) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	if b.sp.subscribe {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.subscribe(ctx, st, rec)
		}()
	}
	for c := 0; c < b.sp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.readLoop(st, end, rand.New(rand.NewSource(b.seed*151+int64(c))), rec)
		}(c)
	}
	err := b.writeLoop(st, start, end, rec)
	cancel()
	wg.Wait()
	if err != nil {
		return err
	}
	return b.probeShadow(st, "end of window")
}

// readLoop is one closed-loop reader of churn's load.
func (b *bench) readLoop(st *stack, end time.Time, rng *rand.Rand, rec *recorder) {
	for time.Now().Before(end) {
		qi := rng.Intn(poolSize)
		t0 := time.Now()
		resp, status, n, err := st.search(context.Background(), "", b.single[qi])
		lat := time.Since(t0)
		if err != nil || status != 200 || resp == nil {
			b.logFailure("read", status, err)
			rec.search(lat, 1, 0, 1, len(b.single[qi]), n, false)
			continue
		}
		// Reads race the writer, so a single answer has no fixed
		// reference; exactness is checked at quiescent points.
		good := int64(0)
		if lat <= b.sp.limit {
			good = 1
		}
		rec.search(lat, 1, good, 0, len(b.single[qi]), n, true)
	}
}

// writeLoop issues the fixed-rate writes and runs the quiescent-point
// actions.
func (b *bench) writeLoop(st *stack, start, end time.Time, rec *recorder) error {
	var we writeEngine = st.eng.mut
	if st.eng.clu != nil {
		we = st.eng.clu
	}
	actions := b.schedule(end.Sub(start))
	rng := rand.New(rand.NewSource(b.seed*171 + 5))
	base := start
	for i := 0; ; i++ {
		due := base.Add(time.Duration(float64(i) / b.sp.writeRate * float64(time.Second)))
		if !due.Before(end) {
			return nil
		}
		time.Sleep(time.Until(due))
		rec.lateness(time.Since(due))
		err := b.writeOne(we, rng, i)
		lat := time.Since(due)
		rec.mu.Lock()
		rec.p.writes++
		if err != nil {
			rec.p.wfail++
			fmt.Fprintf(b.log, "perfbench: write %d: %v\n", i, err)
		} else {
			rec.p.wlat = append(rec.p.wlat, lat)
		}
		if st.eng.mut != nil && i%20 == 0 {
			rows := 0
			for _, s := range st.eng.mut.Stats() {
				rows += s.DeltaRows
			}
			rec.p.deltaRows = append(rec.p.deltaRows, float64(rows))
		}
		rec.mu.Unlock()
		if act, ok := actions[i]; ok {
			// Writes pause for the action; the schedule shifts by the
			// pause so the next write is not counted late for it.
			t0 := time.Now()
			if err := act(st, rec); err != nil {
				return err
			}
			base = base.Add(time.Since(t0))
		}
	}
}

// schedule places the quiescent-point actions at op counts drawn from
// the seed inside the window.
func (b *bench) schedule(window time.Duration) map[int]func(*stack, *recorder) error {
	ops := int(window.Seconds() * b.sp.writeRate)
	rng := rand.New(rand.NewSource(b.seed*191 + 11))
	acts := map[int]func(*stack, *recorder) error{}
	if b.sp.kind != kindCluster {
		for _, f := range []float64{0.3, 0.6} {
			at := int(float64(ops) * (f + 0.1*rng.Float64()))
			acts[at] = func(st *stack, _ *recorder) error { return b.probeShadow(st, fmt.Sprintf("write %d", at)) }
		}
		return acts
	}
	// Every node is killed killsPerNode times, in seeded order, so each
	// run repairs the same set of lost replicas.
	var order []int
	for i := 0; i < killsPerNode; i++ {
		order = append(order, rng.Perm(b.sp.nodes)...)
	}
	span := ops / len(order)
	for c, node := range order {
		kill := c*span + int(float64(span)*(0.1+0.2*rng.Float64()))
		restore := kill + int(float64(span)*0.4)
		acts[kill] = func(st *stack, _ *recorder) error { return st.eng.clu.KillNode(node) }
		acts[restore] = func(st *stack, rec *recorder) error {
			t0 := time.Now()
			if err := st.eng.clu.RestoreNode(node); err != nil {
				return err
			}
			if _, err := st.eng.clu.Repair(); err != nil {
				return fmt.Errorf("repair after restoring node %d: %w", node, err)
			}
			d := time.Since(t0)
			placed := 0
			for _, ns := range st.eng.clu.Nodes() {
				placed += ns.Replicas
			}
			if placed != b.sp.shards*b.sp.replicas {
				return fmt.Errorf("repair after restoring node %d left %d of %d replicas", node, placed, b.sp.shards*b.sp.replicas)
			}
			rec.mu.Lock()
			rec.p.recovery = append(rec.p.recovery, d)
			rec.mu.Unlock()
			return b.probeShadow(st, fmt.Sprintf("after repairing node %d", node))
		}
	}
	return acts
}

// writeOne applies one seeded mutation and mirrors it into the shadow
// once acknowledged.
func (b *bench) writeOne(we writeEngine, rng *rand.Rand, i int) error {
	v := b.writes.Row(i % b.writes.N)
	u := rng.Float64()
	sh := b.shadow
	switch {
	case u < 0.5 || len(sh.ids) < b.data.N/2:
		id, err := we.Insert(v)
		if err == nil {
			sh.put(id, v)
		}
		return err
	case u < 0.75:
		id := sh.ids[rng.Intn(len(sh.ids))]
		err := we.Update(id, v)
		if err == nil {
			sh.put(id, v)
		}
		return err
	default:
		id := sh.ids[rng.Intn(len(sh.ids))]
		err := we.Delete(id)
		if err == nil {
			sh.del(id)
		}
		return err
	}
}

// subscribe holds one standing kNN subscription open on the reader's
// connection until ctx ends, counting the events it streams.
func (b *bench) subscribe(ctx context.Context, st *stack, rec *recorder) {
	body, err := json.Marshal(netserve.SubscribeRequest{Query: b.pool.Row(0), K: k})
	if err != nil {
		b.failSubscribe(0, err)
		return
	}
	req, err := newPost(ctx, st.url+"/v1/subscribe", body)
	if err != nil {
		b.failSubscribe(0, err)
		return
	}
	resp, err := st.client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		status := 0
		if resp != nil {
			status = resp.StatusCode
			resp.Body.Close()
		}
		b.failSubscribe(status, err)
		return
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev netserve.EventLine
		if err := dec.Decode(&ev); err != nil {
			return // the window ended (canceled) or the server drained
		}
		rec.mu.Lock()
		rec.p.events++
		rec.p.dropped += ev.Dropped
		rec.mu.Unlock()
	}
}

func (b *bench) failSubscribe(status int, err error) {
	b.logFailure("subscribe", status, err)
	b.count(1, 1)
}

// probeShadow checks probeSize pool queries over the wire against an
// exact scan of the shadow copy. It runs only while no write is in
// flight.
func (b *bench) probeShadow(st *stack, when string) error {
	for i := 0; i < probeSize; i++ {
		qi := (i * 7) % poolSize
		want := b.shadow.exact(b.pool.Row(qi))
		resp, status, _, err := st.search(context.Background(), "", b.single[qi])
		b.count(1, 0)
		if err != nil || status != 200 || resp == nil {
			return fmt.Errorf("probe query %d %s: status %d: %v", qi, when, status, err)
		}
		b.check(resp, want, fmt.Sprintf("probe query %d %s", qi, when))
	}
	return nil
}

// recoverOnce takes the serving engine down and measures the time to
// the first exact answer from its replacement: an immutable engine is
// rebuilt from its rows; a durable engine is closed and recovered from
// its log (serve.RecoverMutable).
func (b *bench) recoverOnce(st *stack) (*stack, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	if err := st.stop(); err != nil {
		return nil, 0, err
	}
	var err error
	if st.eng.mut != nil {
		var eng *serve.MutableEngine
		if eng, err = serve.RecoverMutable(st.eng.mopts); err != nil {
			return nil, 0, err
		}
		st, err = startStack(netserve.Options{Mutable: eng, Obs: st.eng.mopts.Obs}, engines{engine: eng, mut: eng, mopts: st.eng.mopts})
	} else {
		st, err = b.build(nil, nil)
	}
	if err != nil {
		return nil, 0, err
	}
	want := b.refs[0]
	if b.shadow != nil {
		want = b.shadow.exact(b.pool.Row(0))
	}
	resp, status, _, err := st.search(context.Background(), "", b.single[0])
	d := time.Since(t0)
	b.count(1, 0)
	if err != nil || status != 200 || resp == nil {
		st.stop()
		return nil, 0, fmt.Errorf("first query after recovery: status %d: %v", status, err)
	}
	b.check(resp, want, "first answer after recovery")
	return st, d, nil
}

// recoverN runs recoverOnce n times, appending each duration to ds.
func (b *bench) recoverN(st *stack, n int, ds []time.Duration) (*stack, []time.Duration, error) {
	for i := 0; i < n; i++ {
		var d time.Duration
		var err error
		if st, d, err = b.recoverOnce(st); err != nil {
			return nil, nil, err
		}
		ds = append(ds, d)
	}
	return st, ds, nil
}

// shadow is the benchmark's own copy of the live row set, updated only
// by acknowledged writes.
type shadow struct {
	d    int
	ids  []int // ascending
	rows map[int][]float64
}

func newShadow(data *vec.Matrix) *shadow {
	s := &shadow{d: data.D, rows: make(map[int][]float64, data.N)}
	for i := 0; i < data.N; i++ {
		s.ids = append(s.ids, i)
		s.rows[i] = data.Row(i)
	}
	return s
}

func (s *shadow) put(id int, v []float64) {
	if _, ok := s.rows[id]; !ok {
		i := sort.SearchInts(s.ids, id)
		s.ids = append(s.ids, 0)
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = id
	}
	s.rows[id] = v
}

func (s *shadow) del(id int) {
	i := sort.SearchInts(s.ids, id)
	if i < len(s.ids) && s.ids[i] == id {
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
	delete(s.rows, id)
}

// exact is the sequential scan of the live rows in ascending id order,
// so the scan's (distance, index) order equals the engines' (distance,
// id) order; indices are mapped back to ids.
func (s *shadow) exact(q []float64) []vec.Neighbor {
	m := vec.NewMatrix(len(s.ids), s.d)
	for i, id := range s.ids {
		copy(m.Row(i), s.rows[id])
	}
	want := knn.NewStandard(m).Search(q, k, arch.NewMeter())
	for j := range want {
		want[j].Index = s.ids[want[j].Index]
	}
	return want
}
