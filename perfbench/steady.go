package main

import (
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"sort"
	"strings"
)

// steady runs the workload o.steady times, each in a fresh process on
// the next seed, and prints every metric's median, quartiles and sample
// count, with the spread (q3-q1)/median that bounds are set from.
func steady(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := map[string]bool{} // distinct failed shares seen
	correct := true
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		cmd := osexec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Printf("# seed %d: correct=%v failed/attempted=%d/%d", seed, res.Correct, res.Failed, res.Attempted)
		failed[fmt.Sprint(float64(res.Failed)/float64(res.Attempted))] = true
		correct = correct && res.Correct
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			if o.trace == 0 {
				fmt.Printf(" %s=%.4g", name, m.Value)
			}
		}
		fmt.Println()
	}
	var names []string
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %3s %14s %14s %14s %8s %s\n", "metric", "n", "q1", "median", "q3", "spread", "unit")
	for _, n := range names {
		xs := values[n]
		q := quartiles(xs)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-28s %3d %14.6g %14.6g %14.6g %7.2f%% %s\n", n, len(xs), q[0], q[1], q[2], 100*spread, units[n])
	}
	if !correct {
		return fmt.Errorf("a run reported incorrect results")
	}
	if len(failed) > 1 {
		return fmt.Errorf("failed share differs between runs")
	}
	return nil
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
