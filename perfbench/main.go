// Command perfbench is the repository's host benchmark: it runs one named
// workload of the simulator for a fixed time, checks every simulated
// output against the benchmark's own oracles and the paper's shape
// checks, and prints its metrics as one JSON line. See README.md.
//
//	bash perfbench/run.sh --workload paper-figs --seed 20160926 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hpcbd/internal/exec"
	"hpcbd/internal/gctune"
	"hpcbd/internal/sim"
)

const (
	paperSeed = 20160926       // default workload seed (CLUSTER 2016)
	setupReps = 5              // set-ups timed per run; setup_s is their median
	srcDir    = "perfbench"    // the benchmark's source, relinked to time set-up
	buildDir  = ".bench_build" // everything a run writes
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	setupOnly bool
	steady    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: paper-figs, reduce-ladder, scale-parallel or fault-sweeps")
	flag.Int64Var(&o.seed, "seed", paperSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measure for about this many seconds (whole rounds, at least one)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "generate the workload's inputs and oracles, then exit (set-up timing)")
	flag.IntVar(&o.steady, "steady", 0, "steadiness mode: run the workload this many times on successive seeds and print each metric's median and quartiles")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	gctune.Apply()
	exec.Default() // sizes the payload pool and GOMAXPROCS to the CPU budget
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	cfg := paperConfig()
	if o.setupOnly {
		w.setup(cfg, o.seed)
		return nil
	}
	if o.steady > 0 {
		return steady(o)
	}
	printHost(o, cfg)

	setup, err := timeSetup(o)
	if err != nil {
		return err
	}
	roundFn := w.setup(cfg, o.seed)
	res, err := measure(roundFn, o)
	if err != nil {
		return err
	}
	fmt.Printf("# rounds=%d attempted=%d failed=%d sim.events=%d digest=%s\n",
		res.rounds, res.attempted, res.failed, res.events, res.digest)
	for _, b := range res.bad {
		fmt.Fprintln(os.Stderr, "check:", b)
	}
	metrics := map[string]float64{}
	if o.trace == 1 {
		metrics = res.layers
	} else {
		metrics["setup_s"] = setup
		metrics["wall_s"] = res.wall
		metrics["cpu_s"] = res.cpu
		metrics["alloc_bytes"] = res.alloc
	}
	return printResult(res, metrics)
}

// printResult writes the final JSON line.
func printResult(res result, metrics map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for name, v := range metrics {
		out.Metrics[name] = metric{v, unitOf(name)}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "independence"):
		return "fraction"
	}
	return "count"
}

func printHost(o options, cfg config) {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fmt.Printf("# host: cpu=%q numcpu=%d cgroup_quota_cpus=%d gomaxprocs=%d go=%s\n",
		model, runtime.NumCPU(), exec.QuotaCPUs(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d pool=%d foreach=%d gogc=%s scale: nodes=%d shards=%d workers=%d\n",
		o.workload, o.seed, o.seconds, o.trace, exec.Default().Size(), exec.ForEachWidth(), gogc(),
		cfg.scaleNodes, scaleShards, cfg.scaleWorkers)
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return fmt.Sprint(gctune.Percent)
}

// timeSetup measures set-up as a user pays it, setupReps times: relink
// the benchmark from the warm build cache, start it, and let it generate
// the workload's inputs and oracles. It returns the median.
func timeSetup(o options) (float64, error) {
	goBin, err := osexec.LookPath("go")
	if err != nil {
		return 0, fmt.Errorf("set-up timing needs the go command: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "setup", "perfbench"))
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		if err := os.Remove(bin); err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, err
		}
		start := time.Now()
		link := osexec.Command(goBin, "build", "-o", bin, ".")
		link.Dir = srcDir
		link.Stderr = os.Stderr
		if err := link.Run(); err != nil {
			return 0, fmt.Errorf("relink for set-up timing: %w", err)
		}
		child := osexec.Command(bin, "--setup-only", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
		child.Stderr = os.Stderr
		if err := child.Run(); err != nil {
			return 0, fmt.Errorf("set-up run: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// result is what a run measured.
type result struct {
	rounds, attempted, failed int
	correct                   bool
	bad                       []string
	events                    int64
	digest                    string
	wall, cpu, alloc          float64            // medians over the measured rounds
	layers                    map[string]float64 // traced run only
}

// measure runs whole rounds until the next one would overrun the time
// budget (at least one). A traced run first runs one untraced reference
// round, then traced rounds, and reports per-layer medians.
func measure(roundFn func(*round), o options) (result, error) {
	res := result{correct: true}
	account := func(i int, m roundStats) {
		res.rounds++
		res.attempted += m.r.ops
		res.failed += m.r.failed
		res.bad = append(res.bad, m.r.bad...)
		if i == 0 {
			res.digest, res.events = m.digest, m.events
		} else if m.digest != res.digest || m.events != res.events {
			res.correct = false
			res.bad = append(res.bad, fmt.Sprintf("round %d: digest %s, %d events; first round: %s, %d events (simulated outputs not deterministic)",
				i, m.digest, m.events, res.digest, res.events))
		}
	}
	traced := o.trace == 1
	var refWall float64
	if traced {
		ref, err := runRound(roundFn, false)
		if err != nil {
			return res, err
		}
		account(0, ref)
		refWall = ref.wall
	}
	var walls, cpus, allocs, spent []float64
	var layerRounds []map[string]float64
	start := time.Now()
	for {
		t0 := time.Now()
		m, err := runRound(roundFn, traced)
		if err != nil {
			return res, err
		}
		account(res.rounds, m)
		walls = append(walls, m.wall)
		cpus = append(cpus, m.cpu)
		allocs = append(allocs, m.alloc)
		layerRounds = append(layerRounds, m.layers)
		spent = append(spent, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(spent) > o.seconds {
			break
		}
	}
	res.wall, res.cpu, res.alloc = median(walls), median(cpus), median(allocs)
	if traced {
		res.layers = medians(layerRounds)
		res.layers["trace.overhead_s"] = res.wall - refWall
		res.layers["runtime.peak_rss_bytes"] = peakRSS()
	}
	return res, nil
}

// roundStats is one round's measurements.
type roundStats struct {
	r                *round
	wall, cpu, alloc float64
	events           int64
	digest           string
	layers           map[string]float64
}

func runRound(roundFn func(*round), traced bool) (roundStats, error) {
	var tr *tracer
	runtime.GC() // start every round from a collected heap
	if traced {
		var err error
		if tr, err = startTracer(); err != nil {
			return roundStats{}, err
		}
	} else {
		runtime.MemProfileRate = 0
	}
	r := newRound(tr)
	rt0, cpu0, ev0 := readRuntime(), cpuTime(), sim.TotalEvents()
	t0 := time.Now()
	roundFn(r)
	wall := time.Since(t0).Seconds()
	m := roundStats{
		r:      r,
		wall:   wall,
		cpu:    cpuTime() - cpu0,
		alloc:  readRuntime().sub(rt0).allocBytes,
		events: sim.TotalEvents() - ev0,
	}
	if traced {
		layers, err := tr.stop()
		if err != nil {
			return m, err
		}
		for _, sc := range sweepCounters {
			layers[sc.metric] = r.counts[sc.metric]
		}
		ks := r.kstats
		layers["sim.events"] = float64(m.events)
		layers["sim.ns_per_event"] = wall * 1e9 / float64(max(m.events, 1))
		layers["sim.events_per_s"] = float64(m.events) / wall
		layers["sim.windowed_frac"] = ratio(ks.windowed, ks.events)
		layers["sim.independence"] = ratio(ks.independent, ks.events)
		layers["sim.cross_shard"] = float64(ks.cross)
		m.layers = layers
	}
	var err error
	m.digest, err = r.digest()
	return m, err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime is the process's user plus system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medians takes each metric's median over rounds.
func medians(rounds []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range rounds[0] {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r[name])
		}
		out[name] = median(xs)
	}
	return out
}
