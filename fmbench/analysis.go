package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crossval"
	"repro/internal/experiments"
	"repro/internal/svm"
	"repro/internal/vecmath"
)

// The analysis layers are the paper's offline path: the Table 4 and
// Table 5 one-vs-rest SVMs with C-grid cross validation and the Fig 5
// K-means, over up to analyzePerClass labeled intervals of each of scp,
// kcompile, dbench and the three myri10ge driver variants.
const analyzePerClass = 60

// analyzeClasses are the classes the paper's tables and figure use.
func analyzeClasses() []class {
	var cs []class
	for _, c := range allClasses() {
		if c.label != "apachebench" {
			cs = append(cs, c)
		}
	}
	return cs
}

// analyzeLayers times the analysis layers one call at a time: the C-grid
// cross validation of each grouping, one SVM fit and its scoring per
// grouping, and K-means over the three-workload set.
func analyzeLayers(r *run, set *experiments.SignatureSet) error {
	p4 := experiments.MLParams{Folds: 10, Seed: r.seed, CGrid: crossval.DefaultCGrid()}
	p5 := p4
	p5.Folds = 8
	kernel := svm.DefaultPolynomial()
	var scored int
	var scoreNS int64
	type task struct {
		g  experiments.Grouping
		gi int
		p  experiments.MLParams
	}
	var tasks []task
	for gi, g := range experiments.Table4Groupings() {
		tasks = append(tasks, task{g, gi, p4})
	}
	for gi, g := range experiments.Table5Groupings() {
		tasks = append(tasks, task{g, gi, p5})
	}
	for _, t := range tasks {
		g, gi, p := t.g, t.gi, t.p
		var sigs []core.Signature
		var y []float64
		var pos, neg []int
		for _, side := range []struct {
			labels []string
			y      float64
		}{{g.Pos, 1}, {g.Neg, -1}} {
			for _, l := range side.labels {
				for _, s := range set.ByLabel[l] {
					if side.y > 0 {
						pos = append(pos, len(sigs))
					} else {
						neg = append(neg, len(sigs))
					}
					y = append(y, side.y)
					sigs = append(sigs, s)
				}
			}
		}
		x := experiments.SparseVecs(experiments.CompactDims(sigs))
		folds, err := crossval.PaperKFold(pos, neg, p.Folds, p.Seed+int64(gi))
		if err != nil {
			return err
		}
		if err := r.tr.time(0, 0, "crossval.grid", func() error {
			_, err := crossval.EvaluateSVMWorkers(x, y, folds, p.CGrid, kernel, p.Seed+int64(gi)*17, 0)
			return err
		}); err != nil {
			return err
		}
		tx, ty := pick(x, y, folds[0].Train)
		var m *svm.Model
		if err := r.tr.time(0, 0, "svm.train", func() error {
			m, err = svm.TrainSparse(tx, ty, svm.Config{C: 10, Kernel: kernel, Seed: p.Seed})
			return err
		}); err != nil {
			return err
		}
		qx, _ := pick(x, y, folds[0].Test)
		t0 := time.Now()
		m.DecisionBatch(qx, 0)
		scoreNS += time.Since(t0).Nanoseconds()
		scored += len(qx)
	}
	var grid float64
	for _, d := range r.tr.durations("crossval.grid") {
		grid += d / 1e3
	}
	r.put("crossval.grid_s", "s", grid)
	r.put("svm.train_ms.p50", "ms", median(r.tr.durations("svm.train")))
	r.put("svm.score_us_per_sig", "us", float64(scoreNS)/1e3/float64(scored))

	var sigs []core.Signature
	for _, l := range []string{"scp", "kcompile", "dbench"} {
		sigs = append(sigs, set.ByLabel[l]...)
	}
	pts := experiments.SparseVecs(experiments.CompactDims(sigs))
	if err := r.tr.time(0, 0, "cluster.kmeans", func() error {
		_, err := cluster.KMeansSparse(pts, cluster.KMeansConfig{K: 3, Restarts: 4, MaxIter: 60, Seed: p4.Seed})
		return err
	}); err != nil {
		return err
	}
	r.put("cluster.kmeans_s", "s", median(r.tr.durations("cluster.kmeans"))/1e3)
	return nil
}

// pick gathers the examples at idx.
func pick(x []*vecmath.Sparse, y []float64, idx []int) ([]*vecmath.Sparse, []float64) {
	px := make([]*vecmath.Sparse, len(idx))
	py := make([]float64, len(idx))
	for i, j := range idx {
		px[i], py[i] = x[j], y[j]
	}
	return px, py
}
