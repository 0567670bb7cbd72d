package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pimmine/internal/obs"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// This file pins the contract the shared query pipeline gives every
// engine: the immutable serve.Engine, the mutable serve.MutableEngine
// with no mutations, and the replicated cluster.Engine over host scans
// answer the same data, shard count and router identically — neighbors,
// routing annotations, errors and observability.

const contractShards = 8

// contractEngine is the query surface the three engines share.
type contractEngine interface {
	SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (*serve.Result, error)
	SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*serve.BatchResult, error)
	Close() error
}

type engineKind struct {
	name  string
	build func(data *vec.Matrix, r *route.Router, o *obs.Observer) (contractEngine, error)
}

var engineKinds = []engineKind{
	{"serve", func(data *vec.Matrix, r *route.Router, o *obs.Observer) (contractEngine, error) {
		return serve.New(data, serve.Options{Shards: contractShards, Router: r, Obs: o})
	}},
	{"mutable", func(data *vec.Matrix, r *route.Router, o *obs.Observer) (contractEngine, error) {
		return serve.NewMutable(data, serve.MutableOptions{Options: serve.Options{Shards: contractShards, Router: r, Obs: o}})
	}},
	{"cluster", func(data *vec.Matrix, r *route.Router, o *obs.Observer) (contractEngine, error) {
		return New(data, Options{Nodes: 4, Replicas: 2, Shards: contractShards, Router: r, Obs: o})
	}},
}

// contractRouterConfig routes approximately at a low recall target and
// audits every approximate query, so skipped shards, audits and the
// router's cumulative stats all show.
var contractRouterConfig = route.Config{Recall: 0.5, AuditEvery: 1}

// buildKind builds one engine kind, with a fresh router of the contract
// config when routed (each engine keeps its own router statistics).
func buildKind(t *testing.T, k engineKind, data *vec.Matrix, routed bool, o *obs.Observer) (contractEngine, *route.Router) {
	t.Helper()
	var r *route.Router
	if routed {
		var err error
		if r, err = route.NewEven(contractRouterConfig, data, contractShards); err != nil {
			t.Fatalf("route.NewEven: %v", err)
		}
	}
	eng, err := k.build(data, r, o)
	if err != nil {
		t.Fatalf("%s: build: %v", k.name, err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, r
}

func bitsEqual(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestApproxRoutingMatchesServe pins the cluster's approximate routing
// to serve.Engine's: the same skipped shard ids, the same audits and
// measured recall, and the same outcomes recorded on the router.
func TestApproxRoutingMatchesServe(t *testing.T) {
	t.Parallel()
	data := clusteredData(t, 800, 16, 8, 31)
	srv, rs := buildKind(t, engineKinds[0], data, true, nil)
	clu, rc := buildKind(t, engineKinds[2], data, true, nil)
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		q := data.Row(i * 67 % data.N)
		want, err := srv.SearchMode(ctx, q, 10, route.ModeApprox)
		if err != nil {
			t.Fatalf("serve query %d: %v", i, err)
		}
		got, err := clu.SearchMode(ctx, q, 10, route.ModeApprox)
		if err != nil {
			t.Fatalf("cluster query %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Routed, want.Routed) {
			t.Fatalf("query %d: cluster RouteInfo %+v, serve %+v", i, *got.Routed, *want.Routed)
		}
	}
	if got, want := rc.Selectivity(), rs.Selectivity(); got != want || want == 0 {
		t.Fatalf("cluster router selectivity %v, serve %v (want equal, nonzero)", got, want)
	}
}

// TestJoinedShardErrorsInShardOrder kills every node of a 12-shard
// cluster: the joined error must list the shards 0..11 in ascending id
// order, not in string order (0, 10, 11, 1, …).
func TestJoinedShardErrorsInShardOrder(t *testing.T) {
	t.Parallel()
	data := randMatrix(120, 6, 41)
	eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2, Shards: 12})
	for n := 0; n < 3; n++ {
		if err := eng.KillNode(n); err != nil {
			t.Fatalf("KillNode(%d): %v", n, err)
		}
	}
	_, err := eng.Search(context.Background(), data.Row(0), 3)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("search with every node down: got %v, want ErrNoQuorum", err)
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 12 {
		t.Fatalf("joined error has %d lines, want 12:\n%v", len(lines), err)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("shard %d: ", i); !strings.HasPrefix(line, want) {
			t.Fatalf("line %d = %q, want prefix %q", i, line, want)
		}
	}
}

// TestThreeEnginesOneContract builds the same data, shard count and
// router three ways and requires one behavior from all of them.
func TestThreeEnginesOneContract(t *testing.T) {
	t.Parallel()
	data := clusteredData(t, 800, 16, 8, 37)
	ctx := context.Background()
	const k = 10
	queries := make([][]float64, 10)
	for i := range queries {
		queries[i] = data.Row(i * 79 % data.N)
	}

	unrouted := make([]contractEngine, len(engineKinds))
	routed := make([]contractEngine, len(engineKinds))
	observers := make([]*obs.Observer, len(engineKinds))
	for i, kind := range engineKinds {
		unrouted[i], _ = buildKind(t, kind, data, false, nil)
		observers[i] = obs.New(obs.Config{SampleRate: 1})
		routed[i], _ = buildKind(t, kind, data, true, observers[i])
	}

	// Neighbors and routing annotations agree in every mode.
	for _, tc := range []struct {
		name string
		engs []contractEngine
		mode route.Mode
	}{
		{"unrouted", unrouted, route.ModeAuto},
		{"exact", routed, route.ModeExact},
		{"approx", routed, route.ModeApprox},
	} {
		for qi, q := range queries {
			var want *serve.Result
			for i, eng := range tc.engs {
				res, err := eng.SearchMode(ctx, q, k, tc.mode)
				if err != nil {
					t.Fatalf("%s %s query %d: %v", tc.name, engineKinds[i].name, qi, err)
				}
				if i == 0 {
					want = res
					continue
				}
				if !bitsEqual(res.Neighbors, want.Neighbors) {
					t.Fatalf("%s query %d: %s neighbors differ from serve", tc.name, qi, engineKinds[i].name)
				}
				if !reflect.DeepEqual(res.Routed, want.Routed) {
					t.Fatalf("%s query %d: %s RouteInfo %+v, serve %+v", tc.name, qi, engineKinds[i].name, res.Routed, want.Routed)
				}
			}
		}
	}

	// Observability: one engine.search root per query, with one shard
	// child per visited shard, and the shared query counter.
	for i, eng := range routed {
		name := engineKinds[i].name
		res, err := eng.SearchMode(ctx, queries[0], k, route.ModeExact)
		if err != nil {
			t.Fatalf("%s: observed query: %v", name, err)
		}
		traces := observers[i].Tracer().Recent(1)
		if len(traces) != 1 {
			t.Fatalf("%s: no trace recorded", name)
		}
		tree := traces[0].Render()
		if root := strings.SplitN(tree, "\n", 3)[1]; !strings.HasPrefix(root, "engine.search") {
			t.Fatalf("%s: root span %q, want engine.search:\n%s", name, root, tree)
		}
		shardSpans := regexp.MustCompile(`(?m)^[├└]─ shard \d+ `).FindAllString(tree, -1)
		if len(shardSpans) != res.Routed.Visited {
			t.Fatalf("%s: %d shard spans under the root, want %d visited:\n%s", name, len(shardSpans), res.Routed.Visited, tree)
		}
		want := int64(2*len(queries) + 1)
		if got := observers[i].Registry().Counter("pim_serve_queries_total", "").Value(); got != want {
			t.Fatalf("%s: pim_serve_queries_total = %d, want %d", name, got, want)
		}
	}

	// Errors: the same ones, from the same pipeline.
	empty := &vec.Matrix{D: data.D}
	var errMsgs [2][]string
	for i, eng := range unrouted {
		name := engineKinds[i].name
		if _, err := eng.SearchMode(ctx, queries[0], k, route.ModeExact); !errors.Is(err, serve.ErrNoRouter) {
			t.Fatalf("%s: explicit mode without router: got %v, want ErrNoRouter", name, err)
		}
		_, errK := eng.SearchMode(ctx, queries[0], 0, route.ModeAuto)
		_, errD := eng.SearchMode(ctx, queries[0][:3], k, route.ModeAuto)
		if errK == nil || errD == nil {
			t.Fatalf("%s: k=0 error %v, wrong-dims error %v; want both", name, errK, errD)
		}
		errMsgs[0] = append(errMsgs[0], errK.Error())
		errMsgs[1] = append(errMsgs[1], errD.Error())
		br, err := eng.SearchBatch(ctx, empty, k)
		if err != nil || br == nil || len(br.Results) != 0 {
			t.Fatalf("%s: empty batch: %v, %v; want an empty result", name, br, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if _, err := eng.SearchMode(ctx, queries[0], k, route.ModeAuto); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("%s: search after Close: got %v, want ErrClosed", name, err)
		}
	}
	for _, msgs := range errMsgs {
		for i, m := range msgs {
			if m != msgs[0] {
				t.Fatalf("%s error %q differs from serve's %q", engineKinds[i].name, m, msgs[0])
			}
		}
	}
}
