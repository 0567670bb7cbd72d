package knn

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
)

// The searcher golden pins the eight ED filter-and-refine searchers (plus
// FNN-PIM with every host bound dropped) to a committed rendering of their
// neighbours (Float64bits), per-stage statistics, per-query meter and
// preprocessing meter. Any change to a bound, a cost charge or a stage
// count shows up as a diff.
//
// Regenerate with: go test ./internal/knn -run SearcherGolden -update

var update = flag.Bool("update", false, "rewrite testdata/searchers.golden")

// goldenSearchers builds the pinned searchers over a fixed seeded 300×64
// dataset and returns them with 8 queries.
func goldenSearchers(t *testing.T) ([]Searcher, [][]float64) {
	t.Helper()
	prof := dataset.Profile{Name: "golden", FullN: 300, D: 64, Clusters: 6, Correlation: 0.7, Spread: 0.12}
	ds := dataset.Generate(prof, 300, 1401)
	data := ds.X
	q := defaultQuant(t)
	eng := newEngine(t)
	var out []Searcher
	add := func(s Searcher, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	add(NewStandard(data), nil)
	add(NewOST(data, data.D/2))
	add(NewSM(data, 16))
	add(NewFNN(data))
	add(NewStandardPIM(eng, data, q, data.N))
	add(NewFNNPIM(eng, data, q, data.N))
	add(NewFNNPIMOptimized(eng, data, q, data.N, nil))
	add(NewSMPIM(eng, data, q, 16, data.N))
	add(NewOSTPIM(eng, data, q, data.D/2, data.N))
	qs := ds.Queries(8, 1402)
	queries := make([][]float64, qs.N)
	for i := range queries {
		queries[i] = qs.Row(i)
	}
	return out, queries
}

// renderMeter writes every function bucket of m, sorted by name.
func renderMeter(b *strings.Builder, indent string, m *arch.Meter) {
	for _, fn := range m.Functions() {
		fmt.Fprintf(b, "%s%s %+v\n", indent, fn, m.Get(fn))
	}
}

// renderSearcher runs every query through s and renders what it returned
// and recorded, then the meter of its offline preprocessing (empty for
// searchers with none).
func renderSearcher(b *strings.Builder, s Searcher, queries [][]float64, k int) {
	fmt.Fprintf(b, "searcher %s\n", s.Name())
	for qi, qv := range queries {
		m := arch.NewMeter()
		nn := s.Search(qv, k, m)
		fmt.Fprintf(b, " query %d\n  nn", qi)
		for _, n := range nn {
			fmt.Fprintf(b, " %d:%016x", n.Index, math.Float64bits(n.Dist))
		}
		b.WriteString("\n")
		if st, ok := s.(Stager); ok {
			for _, stage := range st.LastStages() {
				fmt.Fprintf(b, "  stage %s in=%d out=%d transfer_dims=%d\n", stage.Name, stage.In, stage.Out, stage.TransferDims)
			}
		}
		renderMeter(b, "  meter ", m)
	}
	pre := arch.NewMeter()
	if p, ok := s.(Preprocessor); ok {
		p.RecordPreprocessing(pre)
	}
	b.WriteString(" preprocessing\n")
	renderMeter(b, "  meter ", pre)
}

func TestSearcherGolden(t *testing.T) {
	const k = 7
	searchers, queries := goldenSearchers(t)
	var b strings.Builder
	for _, s := range searchers {
		renderSearcher(&b, s, queries, k)
	}
	got := b.String()
	path := filepath.Join("testdata", "searchers.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(want) != got {
		t.Fatalf("searchers drifted from committed golden file\n%s", firstDiff(string(want), got))
	}
}

// firstDiff reports the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
