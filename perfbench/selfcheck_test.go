package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pimmine/internal/netserve"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-check
// compares against the program.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json's workloads and
// metric names and units to the ones the program emits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	same := func(what string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", what, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly in both
// modes and checks the result line: exact answers, every metric of the
// mode present with its unit and a finite value.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, log bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out, &log)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", name, trace, code, log.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v", name, trace, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d metrics=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed, len(rep.Metrics))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestExactnessGateTrips corrupts one distance of every served answer by
// one ulp and checks the run is reported incorrect — for the workloads
// checked against the precomputed scan and against the shadow copy.
func TestExactnessGateTrips(t *testing.T) {
	for _, name := range []string{"pim-batch", "churn-durable"} {
		b, err := newBench(specs[name], 3, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		b.tamper = func(r *netserve.QueryResponse) {
			if len(r.Neighbors) > 0 {
				r.Neighbors[0].Dist = math.Nextafter(r.Neighbors[0].Dist, math.Inf(1))
			}
		}
		rep, err := b.run(time.Second, false)
		b.cleanup()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Correct {
			t.Errorf("%s: a corrupted answer passed the exactness gate", name)
		}
	}
}
