package main

// Per-layer attribution, measured from outside the program: spans around
// the benchmark's own calls into each layer's public functions, and host
// CPU and allocation profiles whose samples are charged to the module of
// their innermost repository frame.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// modules are the repository's layers, in report order. Every package
// under hpcbd/internal/<m> is module m; the root package (the hpcbd
// facade) and any other repository package count as core, the harness.
var modules = []string{
	"sim", "exec", "cluster", "transport", "dfs", "ha", "mpi", "shmem", "omp",
	"rdd", "mapred", "rm", "chaos", "core", "workload", "keyhash", "scratch",
}

// benchModule names the benchmark's own code; runtimeModule takes samples
// with no repository frame at all (GC, scheduler, standard library).
const (
	benchModule   = "bench"
	runtimeModule = "runtime"
)

// moduleOf maps one function name, as Go symbolizes it, to its module,
// or "" when the function is not repository code.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold paths
	}
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main" || pkg == "hpcbd/perfbench": // linked, or under test
		return benchModule
	case strings.HasPrefix(pkg, "hpcbd/internal/"):
		m := strings.TrimPrefix(pkg, "hpcbd/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		for _, known := range modules {
			if m == known {
				return m
			}
		}
		return "core"
	case pkg == "hpcbd" || strings.HasPrefix(pkg, "hpcbd/"):
		return "core"
	}
	return ""
}

// attribute returns the module of a stack (innermost frame first): the
// module of its innermost repository frame, or runtime when it has none.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return runtimeModule
}

// spanNames are the benchmark's spans: host seconds in its calls into
// each layer's public functions. Every traced round reports all of them,
// zero where the workload makes no such call.
var spanNames = []string{
	"cluster.build_s",
	"mpi.reduce_s", "mpi.answerscount_s", "mpi.pagerank_s",
	"shmem.sum_to_all_s",
	"omp.answerscount_s",
	"rdd.reduce_s", "rdd.answerscount_s", "rdd.pagerank_persist_s",
	"mapred.answerscount_s",
	"core.table2_s",
	"core.master_sweep_s", "core.partition_sweep_s", "core.overload_sweep_s",
}

// tracer collects one traced round's per-layer figures.
type tracer struct {
	mu    sync.Mutex
	spans map[string]float64 // span name -> host seconds

	cpuBuf   bytes.Buffer
	memStart map[[32]uintptr]memCount
	rt0      rtSnapshot
}

type memCount struct{ bytes, objects int64 }

// span runs fn and charges its host wall time to name. A nil tracer
// (untraced runs) just calls fn.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	t.mu.Lock()
	t.spans[name] += d
	t.mu.Unlock()
}

// traceMemRate is the allocation sampling interval of traced rounds.
const traceMemRate = 64 << 10

// startTracer begins a traced round: spans, a CPU profile, and snapshots
// of the allocation profile and runtime counters.
func startTracer() (*tracer, error) {
	runtime.MemProfileRate = traceMemRate
	t := &tracer{spans: map[string]float64{}}
	runtime.GC() // publish allocation samples taken so far
	t.memStart = memProfile()
	t.rt0 = readRuntime()
	if err := pprof.StartCPUProfile(&t.cpuBuf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return t, nil
}

// stop ends the round and returns its per-layer metrics.
func (t *tracer) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	rt := readRuntime().sub(t.rt0)
	runtime.GC()
	memEnd := memProfile()

	out := map[string]float64{}
	for _, m := range append(append([]string{}, modules...), benchModule, runtimeModule) {
		out[m+".cpu_s"] = 0
		out[m+".alloc_bytes"] = 0
	}
	samples, err := parseProfile(t.cpuBuf.Bytes())
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		out[attribute(s.stack)+".cpu_s"] += float64(s.values[1]) / 1e9 // [samples, cpu ns]
	}
	for stk, end := range memEnd {
		d := memCount{end.bytes - t.memStart[stk].bytes, end.objects - t.memStart[stk].objects}
		if d.bytes <= 0 || d.objects <= 0 {
			continue
		}
		out[attribute(stackNames(stk))+".alloc_bytes"] += unsample(d, traceMemRate)
	}
	for _, name := range spanNames {
		out[name] = 0
	}
	for name, s := range t.spans {
		out[name] = s
	}
	out["runtime.gc_cpu_s"] = rt.gcCPU
	out["runtime.gc_cycles"] = rt.gcCycles
	out["runtime.allocs"] = rt.allocObjects
	out["runtime.sched_wait_s"] = rt.schedWait
	return out, nil
}

// memProfile returns the cumulative allocation profile keyed by stack.
func memProfile() map[[32]uintptr]memCount {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]memCount, n)
	for _, r := range recs[:n] {
		c := out[r.Stack0]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		out[r.Stack0] = c
	}
	return out
}

// stackNames symbolizes a profile stack, innermost frame first, with
// inlined frames expanded.
func stackNames(stk [32]uintptr) []string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// unsample turns sampled allocation bytes into an estimate of the bytes
// actually allocated, the way pprof scales heap profiles: an allocation
// of average size s is sampled with probability 1-exp(-s/rate).
func unsample(c memCount, rate int) float64 {
	avg := float64(c.bytes) / float64(c.objects)
	return float64(c.bytes) / (1 - math.Exp(-avg/float64(rate)))
}

// rtSnapshot holds the runtime counters a round reports.
type rtSnapshot struct {
	allocBytes, allocObjects, gcCycles, gcCPU, schedWait float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtSnapshot{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		gcCPU:        s[3].Value.Float64(),
		schedWait:    histSum(s[4].Value.Float64Histogram()),
	}
}

func (a rtSnapshot) sub(b rtSnapshot) rtSnapshot {
	return rtSnapshot{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		schedWait:    a.schedWait - b.schedWait,
	}
}

// histSum estimates the total of a runtime histogram's observations from
// its bucket midpoints (an open-ended bucket counts at its finite edge).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}
