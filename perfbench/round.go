package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// round is one pass over a workload's operations. An operation is one
// experiment point or one sweep run; it fails when any check on it, or on
// the figure or sweep it belongs to, is violated.
type round struct {
	tr *tracer // nil on untraced rounds

	mu      sync.Mutex
	ops     int
	failed  int
	bad     []string
	outputs []any              // simulated outputs, hashed into the digest
	counts  map[string]float64 // simulated counters summed over the round
	kstats  kernelStats
}

// kernelStats sums sim.ShardStats over the kernels the benchmark builds
// itself (experiments that build their own kernels inside core are not
// visible here).
type kernelStats struct {
	events, independent, cross, windowed int64
}

func newRound(tr *tracer) *round {
	return &round{tr: tr, counts: map[string]float64{}}
}

// group records n operations checked together: pointBad lists violations
// of single operations (each one fails one operation), groupBad those of
// the figure or sweep they make up (which fail all n).
func (r *round) group(n int, pointBad, groupBad []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops += n
	if len(groupBad) > 0 {
		r.failed += n
	} else {
		r.failed += min(len(pointBad), n)
	}
	r.bad = append(r.bad, pointBad...)
	r.bad = append(r.bad, groupBad...)
}

// record adds simulated outputs to the round's digest, in call order.
func (r *round) record(v ...any) {
	r.mu.Lock()
	r.outputs = append(r.outputs, v...)
	r.mu.Unlock()
}

// newCluster builds an n-node Comet cluster on a fresh kernel, as every
// experiment point does, and charges the build to cluster.build_s.
func (r *round) newCluster(seed int64, n int) *cluster.Cluster {
	var c *cluster.Cluster
	r.tr.span("cluster.build_s", func() { c = cluster.Comet(sim.NewKernel(seed), n) })
	return c
}

// ran folds a finished kernel's statistics into the round.
func (r *round) ran(k *sim.Kernel) {
	st := k.ShardStats()
	r.mu.Lock()
	r.kstats.events += st.Events
	r.kstats.independent += st.Independent
	r.kstats.cross += st.Cross
	r.kstats.windowed += st.WindowEvents
	r.mu.Unlock()
}

// digest fingerprints the round's simulated outputs.
func (r *round) digest() (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, v := range r.outputs {
		if err := enc.Encode(v); err != nil {
			return "", fmt.Errorf("digest output %d: %w", i, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
