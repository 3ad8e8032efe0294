package main

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// bruteForce enumerates every permutation and keeps the cheapest feasible
// one under evalCost.
func bruteForce(q *model.Query) float64 {
	n := q.N()
	perm := make([]int, n)
	used := make([]bool, n)
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if checkPlan(q, perm) == nil {
				best = math.Min(best, evalCost(q, perm))
			}
			return
		}
		for s := 0; s < n; s++ {
			if !used[s] {
				used[s] = true
				perm[k] = s
				rec(k + 1)
				used[s] = false
			}
		}
	}
	rec(0)
	return best
}

func TestOptimumMatchesBruteForce(t *testing.T) {
	for fam := family(0); fam < numFamilies; fam++ {
		for n := 1; n <= 8; n++ {
			for rep := 0; rep < 6; rep++ {
				q := genQuery(instanceSeed(7, int(fam), n*10+rep), n, fam, "t")
				if err := q.Validate(); err != nil {
					t.Fatalf("%v n=%d: generated invalid query: %v", fam, n, err)
				}
				want := bruteForce(q)
				if got := optimum(q); !sameCost(got, want) {
					t.Errorf("%v n=%d rep=%d: optimum %v, brute force %v", fam, n, rep, got, want)
				}
				if !feasibleAtMost(q, want*(1+1e-9)) || feasibleAtMost(q, want*(1-1e-9)) {
					t.Errorf("%v n=%d rep=%d: feasibleAtMost does not bracket the optimum %v", fam, n, rep, want)
				}
				if r := regret(q, want*1.25); math.Abs(r-0.25) > 1e-5 {
					t.Errorf("%v n=%d rep=%d: regret of a plan 25%% above the optimum = %v", fam, n, rep, r)
				}
			}
		}
	}
}

func TestEvalCostMatchesModel(t *testing.T) {
	for fam := family(0); fam < numFamilies; fam++ {
		q := genQuery(instanceSeed(3, int(fam), 0), 9, fam, "t")
		plan := make([]int, q.N())
		for i := range plan {
			plan[i] = q.N() - 1 - i
		}
		if got, want := evalCost(q, plan), q.Cost(model.Plan(plan)); got != want {
			t.Errorf("%v: evalCost %v, model %v", fam, got, want)
		}
	}
}

func TestCheckPlanRejects(t *testing.T) {
	q := genQuery(1, 4, famPlain, "t")
	q.Precedence = [][2]int{{2, 0}}
	for _, bad := range [][]int{{0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}, {0, 1, 2, 3}} {
		if checkPlan(q, bad) == nil {
			t.Errorf("checkPlan accepted %v", bad)
		}
	}
	if err := checkPlan(q, []int{2, 0, 1, 3}); err != nil {
		t.Errorf("checkPlan rejected a feasible plan: %v", err)
	}
}

// TestCheckSolvedRejects feeds the answer checker a correct answer from
// the planner and then the same answer with one fault at a time.
func TestCheckSolvedRejects(t *testing.T) {
	q := genQuery(5, 9, famSinkSource, "t")
	res, err := planner.New(planner.Config{}).Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(plan []int, cost float64, optimal bool, tier string) []byte {
		b, _ := json.Marshal(map[string]any{"data": map[string]any{"plan": plan, "cost": cost, "optimal": optimal, "tier": tier}, "error": nil})
		return b
	}
	plan := []int(res.Plan)
	if _, err := checkSolved(q, answer(plan, res.Cost, true, "exact")); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	worse := append([]int(nil), plan...)
	for i := 0; i+1 < len(worse); i++ {
		worse[i], worse[i+1] = worse[i+1], worse[i]
		if evalCost(q, worse) > res.Cost*(1+1e-6) {
			break
		}
		worse[i], worse[i+1] = worse[i+1], worse[i]
	}
	for name, body := range map[string][]byte{
		"cost off by one ulp": answer(plan, math.Nextafter(res.Cost, 2), true, "exact"),
		"not a permutation":   answer(append(append([]int(nil), plan[1:]...), plan[1]), res.Cost, true, "exact"),
		"suboptimal claimed":  answer(worse, evalCost(q, worse), true, "exact"),
		"exact not optimal":   answer(plan, res.Cost, false, "exact"),
		"error envelope":      []byte(`{"data":null,"error":{"code":"internal","message":"x"}}`),
	} {
		if _, err := checkSolved(q, body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
