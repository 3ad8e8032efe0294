package main

// The oracle: an Eq. (1) evaluator and an exact subset DP written here,
// from the paper's definitions, so that no answer is checked against the
// program's own search (internal/core), baselines (internal/baseline) or
// heuristic tier (internal/htier). Only the model types are shared: they
// are the wire format of the requests.

import (
	"fmt"
	"math"
	"math/bits"

	"serviceordering/internal/model"
)

// evalCost is Eq. (1): the maximum over the source term and every plan
// position of (product of the selectivities before it) * (c + sigma * t
// to the next service, or to the sink after the last) / threads. The
// operations run in plan order, so the result is bit-for-bit the value
// the program reports for the same plan.
func evalCost(q *model.Query, plan []int) float64 {
	if len(plan) == 0 {
		return 0
	}
	cost := sourceOf(q, plan[0])
	prod := 1.0
	for i, s := range plan {
		out := sinkOf(q, s)
		if i+1 < len(plan) {
			out = q.Transfer[s][plan[i+1]]
		}
		svc := q.Services[s]
		if term := prod * (svc.Cost + svc.Selectivity*out) / threads(svc); term > cost {
			cost = term
		}
		prod *= svc.Selectivity
	}
	return cost
}

func threads(s model.Service) float64 {
	if s.Threads <= 1 {
		return 1
	}
	return float64(s.Threads)
}

// checkPlan reports whether plan is a permutation of q's services that
// honors every precedence edge.
func checkPlan(q *model.Query, plan []int) error {
	n := q.N()
	if len(plan) != n {
		return fmt.Errorf("plan has %d services, want %d", len(plan), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, s := range plan {
		if s < 0 || s >= n {
			return fmt.Errorf("plan position %d names service %d outside [0,%d)", i, s, n)
		}
		if pos[s] >= 0 {
			return fmt.Errorf("service %d appears twice", s)
		}
		pos[s] = i
	}
	for _, e := range q.Precedence {
		if pos[e[0]] > pos[e[1]] {
			return fmt.Errorf("precedence %d before %d violated", e[0], e[1])
		}
	}
	return nil
}

// sameCost compares a program cost with an oracle optimum computed in a
// different association order: equal within a relative 1e-9.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// optimum is the exact minimum of Eq. (1) over all precedence-feasible
// orders, by a DP over (placed set, last service). A state's value is the
// smallest maximum over the terms already fixed (the last service's term
// waits for its successor); the product of the selectivities of a set does
// not depend on the order, which is what makes the state sufficient. It
// holds 2^n * n values, so callers keep n small (at most 20).
func optimum(q *model.Query) float64 {
	n := q.N()
	if n == 0 {
		return 0
	}
	if n > 20 {
		panic("oracle: optimum supports at most 20 services")
	}
	pred := precedenceMasks(q)
	prod := setProducts(q)
	size := 1 << n
	dp := make([]float64, size*n)
	for i := range dp {
		dp[i] = math.Inf(1)
	}
	for s := 0; s < n; s++ {
		if pred[s] == 0 {
			dp[(1<<s)*n+s] = sourceOf(q, s)
		}
	}
	for mask := 1; mask < size; mask++ {
		for last := 0; last < n; last++ {
			v := dp[mask*n+last]
			if math.IsInf(v, 1) {
				continue
			}
			sl := q.Services[last]
			before := prod[mask&^(1<<last)]
			for j := 0; j < n; j++ {
				bit := 1 << j
				if mask&bit != 0 || pred[j]&^uint32(mask) != 0 {
					continue
				}
				nv := math.Max(v, before*(sl.Cost+sl.Selectivity*q.Transfer[last][j])/threads(sl))
				if k := (mask|bit)*n + j; nv < dp[k] {
					dp[k] = nv
				}
			}
		}
	}
	best := math.Inf(1)
	full := size - 1
	for last := 0; last < n; last++ {
		sl := q.Services[last]
		final := prod[full&^(1<<last)] * (sl.Cost + sl.Selectivity*sinkOf(q, last)) / threads(sl)
		best = math.Min(best, math.Max(dp[full*n+last], final))
	}
	return best
}

// feasibleAtMost reports whether some precedence-feasible order has
// Eq. (1) cost at most tau: a reachability search over (placed set, last
// service) in which every term fixed so far, and the last service's term
// with a free hop, stays at most tau. Terms only grow along a prefix, so a
// prefix that breaks tau is dropped. The last services reachable for each
// placed set are one bitmask, so memory is 2^n words and the search is
// fast when tau sits just below the optimum, where it proves optimality.
func feasibleAtMost(q *model.Query, tau float64) bool {
	n := q.N()
	if n == 0 {
		return tau >= 0
	}
	if n > 24 {
		panic("oracle: feasibleAtMost supports at most 24 services")
	}
	pred := precedenceMasks(q)
	prod := setProducts(q)
	size := 1 << n
	reach := make([]uint32, size) // reach[mask]: feasible last services
	for s := 0; s < n; s++ {
		if pred[s] == 0 && sourceOf(q, s) <= tau && q.Services[s].Cost/threads(q.Services[s]) <= tau {
			reach[1<<s] |= 1 << s
		}
	}
	full := size - 1
	for mask := 1; mask < full; mask++ {
		for lasts := reach[mask]; lasts != 0; lasts &= lasts - 1 {
			last := bits.TrailingZeros32(lasts)
			sl := q.Services[last]
			before := prod[mask&^(1<<last)]
			for j := 0; j < n; j++ {
				bit := 1 << j
				if mask&bit != 0 || reach[mask|bit]&(1<<j) != 0 || pred[j]&^uint32(mask) != 0 {
					continue
				}
				sj := q.Services[j]
				if before*(sl.Cost+sl.Selectivity*q.Transfer[last][j])/threads(sl) <= tau &&
					prod[mask]*sj.Cost/threads(sj) <= tau {
					reach[mask|bit] |= 1 << j
				}
			}
		}
	}
	for lasts := reach[full]; lasts != 0; lasts &= lasts - 1 {
		last := bits.TrailingZeros32(lasts)
		sl := q.Services[last]
		if prod[full&^(1<<last)]*(sl.Cost+sl.Selectivity*sinkOf(q, last))/threads(sl) <= tau {
			return true
		}
	}
	return false
}

// regret returns cost / optimum - 1 to a relative precision of 1e-6,
// bisecting on feasibleAtMost between 0 and cost, which must be the cost of
// a feasible plan.
func regret(q *model.Query, cost float64) float64 {
	if !feasibleAtMost(q, cost*(1-1e-9)) {
		return 0
	}
	lo, hi := 0.0, cost
	for hi-lo > 1e-6*hi {
		mid := (lo + hi) / 2
		if feasibleAtMost(q, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return cost/hi - 1
}

func sourceOf(q *model.Query, s int) float64 {
	if q.SourceTransfer == nil {
		return 0
	}
	return q.SourceTransfer[s]
}

func sinkOf(q *model.Query, s int) float64 {
	if q.SinkTransfer == nil {
		return 0
	}
	return q.SinkTransfer[s]
}

// precedenceMasks returns, per service, the set of services that must
// precede it.
func precedenceMasks(q *model.Query) []uint32 {
	pred := make([]uint32, q.N())
	for _, e := range q.Precedence {
		pred[e[1]] |= 1 << e[0]
	}
	return pred
}

// setProducts returns the product of the selectivities of every subset of
// q's services, indexed by bitmask.
func setProducts(q *model.Query) []float64 {
	size := 1 << q.N()
	prod := make([]float64, size)
	prod[0] = 1
	for mask := 1; mask < size; mask++ {
		low := bits.TrailingZeros32(uint32(mask))
		prod[mask] = prod[mask&(mask-1)] * q.Services[low].Selectivity
	}
	return prod
}
