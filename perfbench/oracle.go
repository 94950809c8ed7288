package main

// The benchmark's own oracles. They recompute each simulated result from
// the generated inputs alone, without calling the program's reference
// implementations, so a fault shared by a runtime and its in-repo oracle
// still shows.

import (
	"math"

	"hpcbd/internal/workload"
)

// countAnswers counts questions and answers over the dataset's physical
// sample.
func countAnswers(d *workload.StackExchange) workload.AnswersCountResult {
	var r workload.AnswersCountResult
	for _, p := range d.Records(0, d.NumRecords) {
		if p.Question {
			r.Questions++
		} else {
			r.Answers++
		}
	}
	return r
}

// pageRank runs the paper's power iteration (rank = 0.15 + 0.85·Σ
// contributions, contributions flowing only along edges) over the graph's
// out-edges, starting from rank 1 everywhere.
func pageRank(n int, outEdges func(v int) []int32, iters int) []float64 {
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1
	}
	contrib := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range contrib {
			contrib[i] = 0
		}
		for v := 0; v < n; v++ {
			out := outEdges(v)
			for _, t := range out {
				contrib[t] += ranks[v] / float64(len(out))
			}
		}
		for v := range ranks {
			ranks[v] = 0.15 + 0.85*contrib[v]
		}
	}
	return ranks
}

// ranksAgree reports whether got matches want element-wise within 1e-6
// relative.
func ranksAgree(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6*math.Abs(want[i]) {
			return false
		}
	}
	return true
}

// rankSum is the closed-form element i of a sum over np ranks, where rank
// r contributes r+i: np·i + np(np-1)/2. Every term is an integer below
// 2^53, so the float sum is exact in any order.
func rankSum(np, i int) float64 {
	return float64(np*i + np*(np-1)/2)
}

// sumToAllAfter is element i after iters in-place sum-to-all reductions
// over npes PEs that started from pe+i: the first leaves rankSum, and
// each further one multiplies by npes.
func sumToAllAfter(npes, i, iters int) float64 {
	return rankSum(npes, i) * math.Pow(float64(npes), float64(iters-1))
}

// seriesSum is the sum 0+1+…+(n-1), the Spark reduce of an array holding
// its own indices.
func seriesSum(n int) float64 {
	return float64(n) * float64(n-1) / 2
}
