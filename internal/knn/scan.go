package knn

import (
	"context"
	"fmt"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/measure"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

// stage is one lower bound of a filter-and-refine plan (§V-D's Eq. 13
// orders them; §V-B swaps the bottleneck one for its PIM-aware form).
// prepare computes the query's features — for a PIM bound, its array pass
// — and lb then bounds ED(q, row i) for any row. Constructors capture the
// per-query scratch in the closures, so a warmed-up stage never allocates.
type stage struct {
	name     string         // meter bucket and stage name
	dims     int            // operands moved to the host per consultation
	payloads []*pim.Payload // crossbar payloads of a PIM bound; nil on the host
	prepare  func(q []float64, meter *arch.Meter) error
	lb       func(i int) float64
}

// scan is the one filter-and-refine loop behind the eight ED searchers:
// each row passes the stages in order, lazily — a row reaches stage j+1
// only if stage j did not prune it against the current k-th distance —
// and survivors are refined with exact ED. The searcher types embed it
// and differ only in the stage list their constructors build.
type scan struct {
	Data   *vec.Matrix
	name   string
	span   string // "knn."+name, built once so tracing never concatenates
	stages []stage

	top     *vec.TopK
	entered []int // rows entering each stage, then the refine
	last    []StageStat
}

func newScan(data *vec.Matrix, name string, stages ...stage) scan {
	return scan{Data: data, name: name, span: "knn." + name, stages: stages, entered: make([]int, len(stages)+1)}
}

// Name implements Searcher.
func (c *scan) Name() string { return c.name }

// LastStages implements Stager: one entry per bound, then the exact
// refine. The exact scan has no bound and reports no stages.
func (c *scan) LastStages() []StageStat { return c.last }

// RecordPreprocessing implements Preprocessor: it charges the offline
// programming of every PIM payload (host bounds record nothing).
func (c *scan) RecordPreprocessing(meter *arch.Meter) {
	for _, st := range c.stages {
		for _, p := range st.payloads {
			pim.RecordProgramCost(meter, st.name, p)
		}
	}
}

// Search returns the exact k nearest neighbours of q.
func (c *scan) Search(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	return c.search(context.Background(), q, k, meter, nil)
}

// SearchAppend implements AppendSearcher.
func (c *scan) SearchAppend(q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	return c.search(context.Background(), q, k, meter, dst)
}

// SearchCtx implements ContextSearcher: the searcher span gets a pim-dot
// child per PIM bound, then bound-eval with one annotation per bound and
// the measured refine as its child.
func (c *scan) SearchCtx(ctx context.Context, q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	return c.search(ctx, q, k, meter, nil)
}

func (c *scan) search(ctx context.Context, q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	_, sp := obs.StartSpan(ctx, c.span)
	defer sp.End()
	for _, st := range c.stages {
		var pd *obs.Span
		if st.payloads != nil {
			pd = sp.StartChild("pim-dot")
		}
		if err := st.prepare(q, meter); err != nil {
			panic(fmt.Sprintf("knn: %s %s: %v", c.name, st.name, err)) // shape mismatch is a caller bug
		}
		if pd != nil {
			pd.SetAttr("func", st.name)
			pd.SetAttr("dots", len(st.payloads)*c.Data.N)
			pd.End()
		}
	}
	be := sp.StartChild("bound-eval")
	traced := sp != nil
	var refineDur time.Duration
	if c.top == nil {
		c.top = vec.NewTopK(k)
	} else {
		c.top.Reset(k)
	}
	top, stages, entered, data := c.top, c.stages, c.entered, c.Data
	clear(entered)
	survivors := 0
rows:
	for i := 0; i < data.N; i++ {
		for j := range stages {
			entered[j]++
			if stages[j].lb(i) > top.Threshold() {
				continue rows
			}
		}
		survivors++
		if traced {
			t0 := time.Now()
			top.Push(i, measure.SqEuclidean(data.Row(i), q))
			refineDur += time.Since(t0)
		} else {
			top.Push(i, measure.SqEuclidean(data.Row(i), q))
		}
	}
	entered[len(stages)] = survivors

	c.last = c.last[:0]
	for j, st := range stages {
		if st.payloads != nil {
			costPIMBound(meter.C(st.name), int64(entered[j]), st.dims)
		} else {
			costBoundScan(meter.C(st.name), int64(entered[j]), st.dims)
		}
		c.last = append(c.last, StageStat{Name: st.name, In: entered[j], Out: entered[j+1], TransferDims: st.dims})
	}
	costExactRefine(meter.C(arch.FuncED), int64(survivors), c.Data.D)
	meter.C(arch.FuncOther).Ops += int64(c.Data.N) // heap maintenance
	refine := StageStat{Name: arch.FuncED, In: survivors, Out: k, TransferDims: c.Data.D}
	if len(stages) > 0 {
		c.last = append(c.last, refine)
	}
	if traced {
		for _, st := range c.last[:len(stages)] {
			be.Annotate(st.Name, stageAttrs(st)...)
		}
		be.AddChild("refine", refineDur, stageAttrs(refine)...)
		be.End()
	}
	return top.AppendResults(dst)
}

// stageAttrs renders one StageStat as span attributes.
func stageAttrs(st StageStat) []obs.Attr {
	return []obs.Attr{
		obs.A("in", st.In), obs.A("out", st.Out),
		obs.A("pruned", fmt.Sprintf("%.1f%%", 100*st.PruneRatio())),
		obs.A("transfer_dims", st.TransferDims),
	}
}
