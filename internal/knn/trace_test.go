package knn

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"pimmine/internal/arch"
	"pimmine/internal/obs"
)

// spanNode is one parsed line of a rendered trace.
type spanNode struct {
	name     string
	attrs    map[string]string
	children []*spanNode
}

// parseTrace rebuilds the span tree from Trace.Render's flame view: each
// tree level indents by three runes, a duration follows the name in
// parentheses, and attributes follow in brackets.
func parseTrace(t *testing.T, rendered string) *spanNode {
	t.Helper()
	lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")[1:] // drop the "trace N @ …" header
	var stack []*spanNode
	var root *spanNode
	for _, line := range lines {
		body := strings.TrimLeft(line, " │├└─")
		depth := utf8.RuneCountInString(line[:len(line)-len(body)]) / 3
		n := &spanNode{attrs: map[string]string{}}
		if i := strings.Index(body, "  ["); i >= 0 {
			for _, kv := range strings.Fields(strings.TrimSuffix(body[i+3:], "]")) {
				k, v, _ := strings.Cut(kv, "=")
				n.attrs[k] = v
			}
			body = body[:i]
		}
		if i := strings.Index(body, " ("); i >= 0 {
			body = body[:i]
		}
		n.name = body
		if depth == 0 {
			root = n
		} else {
			if depth > len(stack) {
				t.Fatalf("malformed trace line %q:\n%s", line, rendered)
			}
			parent := stack[depth-1]
			parent.children = append(parent.children, n)
		}
		stack = append(stack[:depth], n)
	}
	return root
}

func childNames(n *spanNode) []string {
	var names []string
	for _, c := range n.children {
		names = append(names, c.name)
	}
	return names
}

// TestSpanTree pins one span tree for every ED filter-and-refine
// searcher: searcher → [pim-dot] → bound-eval → refine, with one
// bound-eval annotation per bound stage carrying its counts, prune ratio
// and transfer dims.
func TestSpanTree(t *testing.T) {
	const k = 7
	_, queries := testData(t, 300, 64)
	for _, s := range searchersUnderTest(t) {
		t.Run(s.Name(), func(t *testing.T) {
			cs, ok := s.(ContextSearcher)
			if !ok {
				t.Fatalf("%s does not implement ContextSearcher", s.Name())
			}
			tr := obs.NewTracer(1, 1)
			ctx, root := tr.Start(context.Background(), "test")
			cs.SearchCtx(ctx, queries.Row(0), k, arch.NewMeter())
			root.End()
			rendered := tr.Recent(1)[0].Render()
			top := parseTrace(t, rendered)

			if len(top.children) != 1 || top.children[0].name != "knn."+s.Name() {
				t.Fatalf("root children %v, want [knn.%s]\n%s", childNames(top), s.Name(), rendered)
			}
			sp := top.children[0]
			want := []string{"bound-eval"}
			if strings.HasSuffix(s.Name(), "-PIM") {
				want = []string{"pim-dot", "bound-eval"}
			}
			if got := childNames(sp); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("searcher children %v, want %v\n%s", got, want, rendered)
			}

			var bounds []StageStat
			refineIn := 300
			if st, ok := s.(Stager); ok {
				if stages := st.LastStages(); len(stages) > 0 {
					bounds = stages[:len(stages)-1]
					refineIn = stages[len(stages)-1].In
				}
			}
			be := sp.children[len(sp.children)-1]
			if len(be.children) != len(bounds)+1 {
				t.Fatalf("bound-eval children %v, want %d bound annotations then refine\n%s", childNames(be), len(bounds), rendered)
			}
			for i, st := range bounds {
				ann := be.children[i]
				if ann.name != st.Name {
					t.Fatalf("bound-eval child %d is %q, want stage %q\n%s", i, ann.name, st.Name, rendered)
				}
				for _, key := range []string{"in", "out", "pruned", "transfer_dims"} {
					if _, ok := ann.attrs[key]; !ok {
						t.Fatalf("annotation %s lacks %q\n%s", st.Name, key, rendered)
					}
				}
			}
			refine := be.children[len(bounds)]
			if refine.name != "refine" || len(refine.children) != 0 {
				t.Fatalf("last bound-eval child %q with %d children, want a leaf refine\n%s", refine.name, len(refine.children), rendered)
			}
			if refine.attrs["in"] != strconv.Itoa(refineIn) || refine.attrs["transfer_dims"] != "64" {
				t.Fatalf("refine attrs %v, want in=%d transfer_dims=64\n%s", refine.attrs, refineIn, rendered)
			}
		})
	}
}
