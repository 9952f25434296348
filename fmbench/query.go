package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// The query shapes of the serving workloads: retrieval is cosine top-10,
// classification a euclidean 5-NN vote.
const (
	topkK     = 10
	classifyK = 5
)

type wireQuery struct {
	Idx []int32   `json:"idx"`
	Val []float64 `json:"val"`
}

type wireRequest struct {
	Queries []wireQuery `json:"queries"`
	K       int         `json:"k"`
	Metric  string      `json:"metric"`
}

type wireHit struct {
	DocID string  `json:"doc_id"`
	Label string  `json:"label"`
	Score float64 `json:"score"`
}

type topkResponse struct {
	Results [][]wireHit `json:"results"`
}

type classifyResponse struct {
	Labels []string `json:"labels"`
}

// queryBody encodes one single-query request body.
func queryBody(q *vecmath.Sparse, k int, metric string) ([]byte, error) {
	var wq wireQuery
	q.ForEach(func(i int, v float64) {
		wq.Idx = append(wq.Idx, int32(i))
		wq.Val = append(wq.Val, v)
	})
	return json.Marshal(wireRequest{Queries: []wireQuery{wq}, K: k, Metric: metric})
}

// parseTopK decodes a one-query TopK answer and checks its shape: k
// distinct hits with non-increasing cosine scores.
func parseTopK(body []byte, k int) ([]wireHit, error) {
	var resp topkResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("topk: undecodable response: %v", err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != k {
		return nil, fmt.Errorf("topk: wrong result shape")
	}
	hits := resp.Results[0]
	seen := make(map[string]bool, k)
	for i, h := range hits {
		if seen[h.DocID] || (i > 0 && h.Score > hits[i-1].Score) {
			return nil, fmt.Errorf("topk: duplicate or misordered hits")
		}
		seen[h.DocID] = true
	}
	return hits, nil
}

func parseClassify(body []byte) (string, error) {
	var resp classifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("classify: undecodable response: %v", err)
	}
	if len(resp.Labels) != 1 || resp.Labels[0] == "" {
		return "", fmt.Errorf("classify: wrong result shape")
	}
	return resp.Labels[0], nil
}

// answers keeps the first served answer for up to limit distinct
// queries, for the oracle to check after the measured phase.
type answers struct {
	mu       sync.Mutex
	limit    int
	topk     map[int][]wireHit
	classify map[int]string
}

func newAnswers(limit int) *answers {
	return &answers{limit: limit, topk: map[int][]wireHit{}, classify: map[int]string{}}
}

func (a *answers) keepTopK(q int, hits []wireHit) {
	a.mu.Lock()
	if _, ok := a.topk[q]; !ok && len(a.topk) < a.limit {
		a.topk[q] = hits
	}
	a.mu.Unlock()
}

func (a *answers) keepClassify(q int, label string) {
	a.mu.Lock()
	if _, ok := a.classify[q]; !ok && len(a.classify) < a.limit {
		a.classify[q] = label
	}
	a.mu.Unlock()
}

// referenceDB is the oracle: the same rows in the same order and shard
// layout, with the inverted index and pruning off, so every query is an
// exhaustive scan.
func referenceDB(sigs []core.Signature, shards int) (*core.DB, error) {
	ref, err := core.NewShardedDB(sigs[0].Dim(), shards)
	if err != nil {
		return nil, err
	}
	ref.SetIndexed(false)
	ref.SetPruned(false)
	if err := ref.AddAll(sigs); err != nil {
		ref.Close()
		return nil, err
	}
	return ref, nil
}

// sameHits reports whether served hits equal the reference bit for bit.
func sameHits(served []wireHit, ref []core.SearchResult) bool {
	if len(served) != len(ref) {
		return false
	}
	for i := range served {
		if served[i].DocID != ref[i].Signature.DocID || served[i].Score != ref[i].Score {
			return false
		}
	}
	return true
}

// check compares every kept answer against ref; each mismatch is a
// failed operation. queries maps a kept query index to its vector.
func (a *answers) check(ref *core.DB, queries []*vecmath.Sparse, o *ops) error {
	for q, hits := range a.topk {
		want, err := ref.TopKSparse(queries[q], topkK, core.CosineMetric())
		if err != nil {
			return err
		}
		if !sameHits(hits, want) {
			o.wrong("topk answer differs from the exhaustive-scan reference")
		}
	}
	for q, label := range a.classify {
		want, err := ref.ClassifySparse(queries[q], classifyK, core.EuclideanMetric())
		if err != nil {
			return err
		}
		if label != want {
			o.wrong("classify answer differs from the exhaustive-scan reference")
		}
	}
	return nil
}
