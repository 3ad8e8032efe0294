package main

// Input generation. Every instance is a pure function of (seed, index), so
// a run can regenerate an instance for checking instead of holding it, and
// the same seed always yields the same request bodies. The generator is
// the benchmark's own: the program receives only the encoded instances.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"serviceordering/internal/model"
)

// family is an instance shape. The four families cover the model's
// extensions: plain filters, precedence constraints, source and sink
// transfer stages, and multi-threaded services mixed with proliferative
// (selectivity > 1) ones.
type family int

const (
	famPlain family = iota
	famPrecedence
	famSinkSource
	famThreads
	numFamilies
)

func (f family) String() string {
	return [...]string{"plain", "precedence", "sink-source", "threads"}[f]
}

// genQuery draws one instance. Costs lie in [0.05, 2], filter
// selectivities in [0.1, 1] and transfers in [0.1, 0.8] (heterogeneity 8),
// the ranges of the repository's experiment suite. Service names carry tag,
// so two instances never share a name: the adaptive registry and the mock
// backend both key services by name.
func genQuery(seed int64, n int, fam family, tag string) *model.Query {
	rng := rand.New(rand.NewSource(seed))
	q := &model.Query{Services: make([]model.Service, n), Transfer: make([][]float64, n)}
	for i := range q.Services {
		s := model.Service{
			Name:        fmt.Sprintf("%s.s%d", tag, i),
			Cost:        0.05 + 1.95*rng.Float64(),
			Selectivity: 0.1 + 0.9*rng.Float64(),
		}
		if fam == famThreads {
			if rng.Float64() < 0.15 {
				s.Selectivity = 1 + rng.Float64()
			}
			if rng.Float64() < 0.3 {
				s.Threads = 2 + rng.Intn(3)
			}
		}
		q.Services[i] = s
	}
	for i := range q.Transfer {
		q.Transfer[i] = make([]float64, n)
		for j := range q.Transfer[i] {
			if i != j {
				q.Transfer[i][j] = 0.1 + 0.7*rng.Float64()
			}
		}
	}
	switch fam {
	case famSinkSource:
		q.SourceTransfer = make([]float64, n)
		q.SinkTransfer = make([]float64, n)
		for i := 0; i < n; i++ {
			q.SourceTransfer[i] = 0.1 + 0.7*rng.Float64()
			q.SinkTransfer[i] = 0.1 + 0.7*rng.Float64()
		}
	case famPrecedence:
		// Edges point forward along one hidden order, so the relation
		// is acyclic.
		order := rng.Perm(n)
		for e := 0; e < n/2; e++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-i-1)
			q.Precedence = append(q.Precedence, [2]int{order[i], order[j]})
		}
	}
	return q
}

// roundQuery rounds every number of q to four decimals.
func roundQuery(q *model.Query) *model.Query {
	r := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	for i := range q.Services {
		q.Services[i].Cost = r(q.Services[i].Cost)
		q.Services[i].Selectivity = r(q.Services[i].Selectivity)
	}
	for _, row := range q.Transfer {
		for j := range row {
			row[j] = r(row[j])
		}
	}
	for _, v := range [][]float64{q.SourceTransfer, q.SinkTransfer} {
		for j := range v {
			v[j] = r(v[j])
		}
	}
	return q
}

// instanceSeed derives the seed of instance idx in stream from the run
// seed, so streams never share an instance.
func instanceSeed(seed int64, stream, idx int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<48 ^ uint64(idx)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return int64(x >> 1)
}

// optimizeBody encodes a /v1/optimize request.
func optimizeBody(q *model.Query) []byte {
	b, err := json.Marshal(struct {
		Query *model.Query `json:"query"`
	}{q})
	if err != nil {
		panic(err) // a generated query always marshals
	}
	return b
}

// executeBody encodes a /v1/execute request over tuples input tuples.
func executeBody(q *model.Query, tuples int) []byte {
	b, err := json.Marshal(struct {
		Query  *model.Query `json:"query"`
		Tuples int          `json:"tuples"`
	}{q, tuples})
	if err != nil {
		panic(err)
	}
	return b
}

// zipfStream draws count indices in [0, k) with skew s from rng.
func zipfStream(rng *rand.Rand, s float64, k, count int) []int {
	z := rand.NewZipf(rng, s, 1, uint64(k-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
