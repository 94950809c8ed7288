package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"hpcbd/internal/core"
	"hpcbd/internal/workload"
)

// Every workload passes all of its checks at test scale, and two rounds
// give the same digest.
func TestWorkloadsPassAtQuickScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			roundFn := w.setup(quickConfig(), paperSeed)
			a, err := runRound(roundFn, false)
			if err != nil {
				t.Fatal(err)
			}
			if a.r.ops == 0 || a.r.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", a.r.failed, a.r.ops, a.r.bad)
			}
			b, err := runRound(roundFn, true)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest || a.events != b.events {
				t.Fatalf("traced round digest %s/%d events, untraced %s/%d", b.digest, b.events, a.digest, a.events)
			}
			for _, name := range perLayerNames(t) {
				if name == "trace.overhead_s" || name == "runtime.peak_rss_bytes" {
					continue // added per run, not per round
				}
				if _, ok := b.layers[name]; !ok {
					t.Errorf("traced round lacks %s", name)
				}
			}
		})
	}
}

// The benchmark's own figure drivers reproduce core's figures exactly.
func TestFiguresMatchCore(t *testing.T) {
	o := core.Quick()
	r := newRound(nil)
	cfg := quickConfig()
	reduceLadder(cfg, o.Seed)(r)
	fig4(r, o, countAnswers(workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)))
	g := workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
	fig6(r, o, g, pageRank(g.NumVertices, g.OutEdges, o.PRIters))
	want := map[string]core.Figure{"fig3": core.Fig3Extended(o)}
	want["fig4"], _ = core.Fig4(o)
	want["fig6"], _ = core.Fig6(o)
	for _, out := range r.outputs {
		fig, ok := out.(core.Figure)
		if !ok {
			continue
		}
		if !reflect.DeepEqual(fig, want[fig.ID]) {
			t.Errorf("%s differs from core:\n got %+v\nwant %+v", fig.ID, fig, want[fig.ID])
		}
		delete(want, fig.ID)
	}
	if len(want) > 0 {
		t.Errorf("figures not produced: %v", want)
	}
}

// perLayerNames reads the per-layer metric names from BENCHMARK.json.
func perLayerNames(t *testing.T) []string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "hpcbd/internal/shmem.Put[...]", "hpcbd/internal/shmem.SumToAll"}, "shmem"},
		{[]string{"hpcbd/internal/sim.(*Kernel).dispatch", "hpcbd/internal/core.MPIAnswersCount"}, "sim"},
		{[]string{"hpcbd/internal/rdd.Map[go.shape.struct { hpcbd/internal/workload.Post }].func1"}, "rdd"},
		{[]string{"hpcbd/internal/core.Fig4.func1.1", "hpcbd/internal/exec.ForEach"}, "core"},
		{[]string{"runtime.memmove", "hpcbd.Fig4"}, "core"}, // the facade is core
		{[]string{"hpcbd/internal/gctune.Apply"}, "core"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"sort.Float64s", "main.median", "main.main"}, "bench"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real CPU profile decodes, and its busy loop is charged to this
// package.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byModule := map[string]int64{}
	for _, s := range samples {
		if len(s.values) != 2 {
			t.Fatalf("sample values %v, want [count, ns]", s.values)
		}
		byModule[attribute(s.stack)] += s.values[1]
	}
	if byModule[benchModule] == 0 {
		t.Fatalf("busy loop not attributed to the benchmark: %v (x=%g)", byModule, x)
	}
}

func TestPageRankOracleByHand(t *testing.T) {
	// 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0. One iteration from all-ones:
	// contrib = [1, 0.5, 1.5]; rank = 0.15 + 0.85·contrib.
	edges := [][]int32{{1, 2}, {2}, {0}}
	got := pageRank(3, func(v int) []int32 { return edges[v] }, 1)
	want := []float64{1.0, 0.575, 1.425}
	if !ranksAgree(got, want) {
		t.Fatalf("one iteration = %v, want %v", got, want)
	}
	// Second iteration: contrib = [1.425, 0.5, 0.5+0.575] .
	got = pageRank(3, func(v int) []int32 { return edges[v] }, 2)
	want = []float64{0.15 + 0.85*1.425, 0.15 + 0.85*0.5, 0.15 + 0.85*1.075}
	if !ranksAgree(got, want) {
		t.Fatalf("two iterations = %v, want %v", got, want)
	}
	if ranksAgree([]float64{1, 1}, []float64{1, 1.00001}) {
		t.Fatal("ranksAgree accepts a 1e-5 relative error")
	}
}

func TestReduceOraclesByHand(t *testing.T) {
	// 4 ranks holding k+i: element 0 sums 0+1+2+3, element 2 sums 2+3+4+5.
	if got := rankSum(4, 0); got != 6 {
		t.Fatalf("rankSum(4, 0) = %g, want 6", got)
	}
	if got := rankSum(4, 2); got != 14 {
		t.Fatalf("rankSum(4, 2) = %g, want 14", got)
	}
	// A second in-place sum-to-all over 4 PEs sums four copies of 14.
	if got := sumToAllAfter(4, 2, 2); got != 56 {
		t.Fatalf("sumToAllAfter(4, 2, 2) = %g, want 56", got)
	}
	if got := seriesSum(5); got != 10 {
		t.Fatalf("seriesSum(5) = %g, want 10", got)
	}
}

func TestAnswersOracleByHand(t *testing.T) {
	d := workload.NewStackExchange(7, 10*512, 512, 3) // records 0, 3, 6, 9
	var want workload.AnswersCountResult
	for _, i := range []int64{0, 3, 6, 9} {
		if d.Post(i).Question {
			want.Questions++
		} else {
			want.Answers++
		}
	}
	if got := countAnswers(d); got != want {
		t.Fatalf("countAnswers = %+v, want %+v", got, want)
	}
}

func TestSumField(t *testing.T) {
	var tree any
	raw := `{"A":[{"Retries":2,"X":{"Retries":3}},{"Retries":5}],"Retries":1,"Other":7}`
	if err := json.Unmarshal([]byte(raw), &tree); err != nil {
		t.Fatal(err)
	}
	if got := sumField(tree, "Retries"); got != 11 {
		t.Fatalf("sumField = %g, want 11", got)
	}
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartiles([]float64{3, 1, 2}); got != [3]float64{1, 2, 3} {
		t.Fatalf("quartiles = %v", got)
	}
}

// The units the benchmark prints are the ones BENCHMARK.json declares.
func TestUnits(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if got := unitOf(m.Name); got != m.Unit {
			t.Errorf("%s printed in %s, declared in %s", m.Name, got, m.Unit)
		}
	}
}
