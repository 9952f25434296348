package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/percpu"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// Sizes of the layer sweep's direct-call probes.
const (
	probeQueries   = 256 // held-out intervals per query, transform and AddAll probe
	probeIntervals = 10  // intervals per simulated host in the daemon probe
)

// sweepInputs are a workload's generated inputs and the DB it served,
// for the layer sweep of its traced run.
type sweepInputs struct {
	rows, held []*core.Document
	dim        int
	db         *core.DB // probed as the workload left it
	hosts      []*host  // the hosts the workload collected from, if any
}

// sweep reports the per-layer metrics of a traced run that the traced
// phase's own spans do not give, so every workload reports every layer.
// The set-up steps, the DB query and AddAll paths and the analysis
// layers are timed by direct calls on the workload's own inputs and DB.
// The daemon and transform layers come from the traced phase where it
// reached them, and otherwise from a short probe on the same inputs.
func (r *run) sweep(in sweepInputs) error {
	model, sigs, err := persistProbe(r, in.rows, in.dim)
	if err != nil {
		return err
	}
	held := in.held[:min(len(in.held), probeQueries)]
	heldSigs, err := embed(model, held)
	if err != nil {
		return err
	}
	qv := make([]*vecmath.Sparse, len(heldSigs))
	for i, s := range heldSigs {
		qv[i] = s.W
	}
	if err := coreProbe(r, in.db, qv); err != nil {
		return err
	}
	if err := addAllProbe(r, sigs, heldSigs); err != nil {
		return err
	}
	if !r.reached("core.transform") {
		for _, d := range held {
			if err := r.tr.time(0, 0, "core.transform", func() error { _, err := model.Transform(d); return err }); err != nil {
				return err
			}
		}
	}
	r.put("core.transform_us.p50", "us", 1e3*median(r.tr.durations("core.transform")))
	if err := r.putDaemon(in.hosts); err != nil {
		return err
	}
	set := &experiments.SignatureSet{ByLabel: map[string][]core.Signature{}}
	for _, c := range analyzeClasses() {
		for _, s := range sigs {
			if s.Label == c.label && len(set.ByLabel[c.label]) < analyzePerClass {
				set.ByLabel[c.label] = append(set.ByLabel[c.label], s)
				set.Sigs = append(set.Sigs, s)
			}
		}
	}
	return analyzeLayers(r, set)
}

// reached reports whether the traced phase recorded a span named name.
func (r *run) reached(name string) bool { return len(r.tr.durations(name)) > 0 }

// persistProbe times the set-up steps one call each: the tf-idf fit,
// the sharded build, seal, SaveDir and the cold mapped open. It returns
// the fit.
func persistProbe(r *run, rows []*core.Document, dim int) (*core.Model, []core.Signature, error) {
	tr := r.tr
	var model *core.Model
	var sigs []core.Signature
	if err := tr.time(0, 0, "core.fit", func() error {
		var err error
		model, sigs, err = fit(rows, dim)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var db *core.DB
	if err := tr.time(0, 0, "core.build", func() error {
		var err error
		if db, err = core.NewShardedDB(dim, sealedShards); err != nil {
			return err
		}
		return db.AddAll(sigs)
	}); err != nil {
		return nil, nil, err
	}
	tr.time(0, 0, "core.seal", func() error { db.Seal(); return nil })
	dir := filepath.Join(r.workdir, "sweep")
	err := tr.time(0, 0, "core.savedir", func() error { return db.SaveDir(dir) })
	db.Close()
	if err != nil {
		return nil, nil, err
	}
	if err := tr.time(0, 0, "core.loaddir", func() error {
		var err error
		db, err = core.LoadDirMapped(dir)
		return err
	}); err != nil {
		return nil, nil, err
	}
	r.put("core.fit_s", "s", median(tr.durations("core.fit"))/1e3)
	r.put("core.build_s", "s", median(tr.durations("core.build"))/1e3)
	r.put("core.seal_ms", "ms", median(tr.durations("core.seal")))
	r.put("core.savedir_s", "s", median(tr.durations("core.savedir"))/1e3)
	r.put("core.loaddir_s", "s", median(tr.durations("core.loaddir"))/1e3)
	r.put("core.disk_bytes_per_sig", "B", float64(dirBytes(dir))/float64(len(sigs)))
	r.put("core.index_mb", "MB", float64(db.IndexBytes())/1e6)
	r.put("core.mapped_mb", "MB", float64(db.MappedBytes())/1e6)
	return model, sigs, db.Close()
}

// queryBodies pre-encodes one TopK (cosine, k=10) and one classify
// (euclidean, k=5) request body per query.
func queryBodies(qv []*vecmath.Sparse) (topk, cls [][]byte, err error) {
	topk = make([][]byte, len(qv))
	cls = make([][]byte, len(qv))
	for i, q := range qv {
		if topk[i], err = queryBody(q, topkK, "cosine"); err != nil {
			return nil, nil, err
		}
		if cls[i], err = queryBody(q, classifyK, "euclidean"); err != nil {
			return nil, nil, err
		}
	}
	return topk, cls, nil
}

// putDaemon reports the collection path: the interval the workload
// runs, the collector's debugfs read, the per-CPU diff and the tracer's
// own snapshot, and the collector's retries and skips over hosts. A
// workload whose traced phase collected nothing gets a probe instead:
// one fresh simulated host per class closing probeIntervals intervals.
func (r *run) putDaemon(hosts []*host) error {
	if !r.reached("daemon.read_counters") {
		hosts = nil
		for ci, c := range allClasses() {
			h, err := bootHost(c, parallel.SplitSeed(r.seed, 13, int64(ci)))
			if err != nil {
				return err
			}
			hosts = append(hosts, h)
			for k := 0; k < probeIntervals; k++ {
				if err := r.tr.time(0, 0, "kernel.interval", h.runInterval); err != nil {
					return err
				}
				var cur []uint64
				if err := r.tr.time(0, 0, "daemon.read_counters", func() error {
					var err error
					cur, err = h.sys.Col.ReadCounters()
					return err
				}); err != nil {
					return err
				}
				if err := r.tr.time(0, 0, "percpu.diff", func() error {
					_, err := percpu.Diff(h.prev, cur)
					return err
				}); err != nil {
					return err
				}
				h.prev = cur
				r.tr.time(0, 0, "trace.snapshot", func() error { h.sys.Fm.Snapshot(); return nil })
			}
		}
	}
	var retries, skipped uint64
	for _, h := range hosts {
		st := h.sys.Col.Stats()
		retries += st.Retries
		skipped += st.SkippedIntervals
	}
	rc := r.tr.durations("daemon.read_counters")
	r.put("daemon.read_counters_ms.p50", "ms", quantile(rc, 0.5))
	r.put("daemon.read_counters_ms.p99", "ms", quantile(rc, 0.99))
	r.put("percpu.diff_us", "us", 1e3*median(r.tr.durations("percpu.diff")))
	r.put("trace.snapshot_us", "us", 1e3*median(r.tr.durations("trace.snapshot")))
	r.put("kernel.interval_us", "us", 1e3*median(r.tr.durations("kernel.interval")))
	r.put("daemon.retries", "count", float64(retries))
	r.put("daemon.skipped", "count", float64(skipped))
	return nil
}

// sampleQueueDepth polls the coalescer's queue depth every 5 ms until
// the returned function is called, which returns the deepest queue seen.
func sampleQueueDepth(srv *serve.Server) func() int {
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		deepest := 0
		for {
			select {
			case <-stop:
				done <- deepest
				return
			case <-t.C:
				deepest = max(deepest, srv.Metrics().QueueDepth)
			}
		}
	}()
	return func() int { close(stop); return <-done }
}

// putServe reports the serving layer and the load generator of a traced
// query phase; before and after bracket it.
func (r *run) putServe(st *loopStats, before, after serve.MetricsSnapshot, maxDepth int) {
	h := r.tr.durations("serve.handler")
	r.put("serve.handler_ms.p50", "ms", quantile(h, 0.5))
	r.put("serve.handler_ms.p99", "ms", quantile(h, 0.99))
	batchMean := 0.0
	if b := after.Batches - before.Batches; b > 0 {
		batchMean = float64(after.Queries-before.Queries) / float64(b)
	}
	r.put("serve.batch_mean", "count", batchMean)
	r.put("serve.queue_depth_max", "count", float64(maxDepth))
	r.put("serve.rejected_429", "count", float64(after.Rejected-before.Rejected))
	r.put("client.query_ms.p50", "ms", st.p(0.5))
	r.put("client.query_ms.p90", "ms", st.p(tailQ))
	r.put("gen.conn_wait_ms.p50", "ms", quantile(st.connWait, 0.5))
	r.put("gen.conn_wait_ms.p99", "ms", quantile(st.connWait, 0.99))
	r.put("gen.late_ms.max", "ms", st.lateMax)
}

// putOverhead reports what tracing cost: the traced half's median
// latency minus the untraced half's, at the same offered rate.
func (r *run) putOverhead(plain, traced *loopStats) {
	d := traced.p(0.5) - plain.p(0.5)
	fmt.Fprintf(os.Stderr, "tracing overhead: p50 %.3f ms untraced vs %.3f ms traced (%+.3f ms), p99 %.3f vs %.3f ms\n",
		plain.p(0.5), traced.p(0.5), d, plain.p(0.99), traced.p(0.99))
	r.put("trace.overhead_ms.p50", "ms", d)
}

// coreProbe times direct calls into the DB for every query, TopK and
// classify, and reports latency and the pruned walk's counters.
func coreProbe(r *run, db *core.DB, queries []*vecmath.Sparse) error {
	var sum core.PruneStats
	for _, q := range queries {
		var st core.PruneStats
		err := r.tr.time(0, 0, "core.topk", func() error {
			var err error
			_, st, err = db.TopKSparseStats(q, topkK, core.CosineMetric())
			return err
		})
		if err != nil {
			return err
		}
		sum.Segments += st.Segments
		sum.SegmentsPruned += st.SegmentsPruned
		sum.Candidates += st.Candidates
		sum.CandidatesScored += st.CandidatesScored
		sum.DimsConsidered += st.DimsConsidered
		sum.DimsSkipped += st.DimsSkipped
		sum.BlocksConsidered += st.BlocksConsidered
		sum.BlocksSkipped += st.BlocksSkipped
		err = r.tr.time(0, 0, "core.classify", func() error {
			_, err := db.ClassifySparse(q, classifyK, core.EuclideanMetric())
			return err
		})
		if err != nil {
			return err
		}
	}
	topk := r.tr.durations("core.topk")
	r.put("core.topk_ms.p50", "ms", quantile(topk, 0.5))
	r.put("core.topk_ms.p99", "ms", quantile(topk, 0.99))
	r.put("core.classify_ms.p50", "ms", quantile(r.tr.durations("core.classify"), 0.5))
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.put("core.prune.scored_ratio", "ratio", ratio(sum.CandidatesScored, sum.Candidates))
	r.put("core.prune.blocks_skipped_ratio", "ratio", ratio(sum.BlocksSkipped, sum.BlocksConsidered))
	r.put("core.prune.dims_skipped_ratio", "ratio", ratio(sum.DimsSkipped, sum.DimsConsidered))
	r.put("core.prune.segments_pruned_ratio", "ratio", ratio(sum.SegmentsPruned, sum.Segments))
	r.put("core.segments", "count", float64(db.Segments()))
	r.put("core.sealed_segments", "count", float64(db.SealedSegments()))
	return nil
}

// addAllProbe builds a DB of the live-ingest shape (small segments, tier
// compaction) from rows, then ingests each of docs with its own AddAll,
// timing each call and counting its allocations and view publishes.
func addAllProbe(r *run, rows, docs []core.Signature) error {
	db, err := core.NewShardedDB(rows[0].Dim(), liveShards)
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetSegmentSize(liveSegment)
	if err := db.SetCompactionPolicy(core.CompactionPolicy{TierFanout: liveTierFanout}); err != nil {
		return err
	}
	if err := db.AddAll(rows); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pub0 := db.Publishes()
	for i := range docs {
		if err := r.tr.time(0, 0, "core.addall", func() error { return db.AddAll(docs[i : i+1]) }); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(docs))
	d := r.tr.durations("core.addall")
	r.put("core.addall_ms.p50", "ms", quantile(d, 0.5))
	r.put("core.addall_ms.p99", "ms", quantile(d, 0.99))
	r.put("core.addall_allocs_per_doc", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	r.put("core.addall_bytes_per_doc", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	r.put("core.publishes_per_doc", "count", float64(db.Publishes()-pub0)/n)
	return nil
}
