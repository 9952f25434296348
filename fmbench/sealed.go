package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// query-sealed sizing. 7 classes × 1286 rows = 9002 distinct intervals,
// whose flat postings (~9 MB) are well beyond a 4 MiB L2 and inside the
// L3; 150 held-out intervals per class are the queries.
const (
	sealedRowsPerClass = 1286
	sealedHeldPerClass = 150
	sealedShards       = 2
	// sealedFixedRate is the fixed offered rate of the latency metrics,
	// below the knee of the measured latency-vs-rate curve.
	sealedFixedRate = 100
	// checkedAnswers bounds how many distinct served answers per kind
	// the oracle re-checks against the exhaustive scan.
	checkedAnswers = 256
)

// sealedSystem is one set-up of the system under test.
type sealedSystem struct {
	dir  string
	db   *core.DB
	http *httpServer
}

// queryMix is the seeded request schedule: request i asks query
// pool[q[i]], as classify when cls[i], else TopK (about 3:1).
type queryMix struct {
	q   []int
	cls []bool
}

func newQueryMix(seed int64, pool, n int, classifyShare float64) queryMix {
	rng := rand.New(rand.NewSource(seed))
	m := queryMix{q: make([]int, n), cls: make([]bool, n)}
	for i := range m.q {
		m.q[i] = rng.Intn(pool)
		m.cls[i] = rng.Float64() < classifyShare
	}
	return m
}

func runQuerySealed(r *run) error {
	t0 := time.Now()
	set, err := genCorpus(r.seed, allClasses(), sealedRowsPerClass, sealedHeldPerClass)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "query-sealed: %d rows, %d held-out queries, dim %d, generated in %.2f s\n",
		len(set.rows), len(set.heldOut), set.dim, time.Since(t0).Seconds())

	var model *core.Model
	var sigs []core.Signature
	rep := 0
	setupS, sys, err := timeSetup(setupReps, func() (*sealedSystem, error) {
		rep++
		return sealedSetup(r, set, rep, &model, &sigs)
	}, func(s *sealedSystem) { s.http.stop(); os.RemoveAll(s.dir) })
	if err != nil {
		return err
	}
	r.put("setup_s", "s", setupS)
	defer os.RemoveAll(sys.dir)
	defer r.stopServer(sys.http)
	if !r.trace {
		set.rows = nil // the system holds its own copy now
	}

	// Client inputs: the held-out queries embedded with the fitted
	// model, and one pre-encoded body per (query, kind).
	queries, err := embed(model, set.heldOut)
	if err != nil {
		return err
	}
	qv := make([]*vecmath.Sparse, len(queries))
	for i, q := range queries {
		qv[i] = q.W
	}
	topkBodies, clsBodies, err := queryBodies(qv)
	if err != nil {
		return err
	}
	mix := newQueryMix(r.seed+7, len(queries), 1<<17, 0.25)
	kept := newAnswers(checkedAnswers)
	offset := 0 // schedule position, so phases do not replay each other
	do := func(base int) func(c *conn, i int, req, span int64, wrote *time.Time) error {
		return func(c *conn, i int, req, span int64, wrote *time.Time) error {
			j := (base + i) % len(mix.q)
			q := mix.q[j]
			if mix.cls[j] {
				body, err := c.post(sys.http.url+"/v1/classify", clsBodies[q], req, span, wrote)
				if err != nil {
					return err
				}
				label, err := parseClassify(body)
				if err == nil {
					kept.keepClassify(q, label)
				}
				return err
			}
			body, err := c.post(sys.http.url+"/v1/topk", topkBodies[q], req, span, wrote)
			if err != nil {
				return err
			}
			hits, err := parseTopK(body, topkK)
			if err == nil {
				kept.keepTopK(q, hits)
			}
			return err
		}
	}
	conns := []*conn{newConn(), newConn()}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	phaseFor := func(rate float64, dur time.Duration, tr *tracer) *loopStats {
		st := openLoop(rate, dur, conns, tr, do(offset))
		offset += len(st.lat)
		st.account(&r.ops)
		return st
	}
	// A short warm-up lets the connections, page cache and heap settle;
	// it is not measured.
	phaseFor(sealedFixedRate, time.Second, nil)

	// The operation is one HTTP query, timed from its due time at the
	// fixed offered rate until the whole response is read.
	if !r.trace {
		ph := startPhase()
		fixed := phaseFor(sealedFixedRate, r.share(1), nil)
		st := ph.end()
		r.putLatency(fixed.lat, latencyWindows)
		r.put("heap_mb", "MB", st.peakHeap/1e6)
		fmt.Fprintf(os.Stderr, "fixed %g qps: %d requests, pooled p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, generator late ≤ %.3f ms\n",
			float64(sealedFixedRate), len(fixed.lat), fixed.p(0.5), fixed.p(tailQ), fixed.p(0.99), fixed.lateMax)
	} else {
		half := r.share(0.5)
		plain := phaseFor(sealedFixedRate, half, nil)
		before := sys.http.srv.Metrics()
		ph := startPhase()
		depth := sampleQueueDepth(sys.http.srv)
		traced := phaseFor(sealedFixedRate, half, r.tr)
		maxDepth := depth()
		st := ph.end()
		after := sys.http.srv.Metrics()
		r.putRuntime(st, int64(len(traced.lat)))
		r.putServe(traced, before, after, maxDepth)
		r.putOverhead(plain, traced)
		r.tr.report(os.Stderr, "request")
		if err := r.sweep(sweepInputs{rows: set.rows, held: set.heldOut, dim: set.dim, db: sys.db}); err != nil {
			return err
		}
	}

	// Ground truth: the share of held-out intervals the served DB
	// classifies into their true class.
	right := 0
	for i, q := range qv {
		label, err := sys.db.ClassifySparse(q, classifyK, core.EuclideanMetric())
		if err != nil {
			return err
		}
		if label == set.heldOut[i].Label {
			right++
		}
	}
	r.put("accuracy", "ratio", float64(right)/float64(len(qv)))
	ref, err := referenceDB(sigs, sealedShards)
	if err != nil {
		return err
	}
	defer ref.Close()
	return kept.check(ref, qv, &r.ops)
}

// sealedSetup fits the model, builds and seals the DB, saves it, opens
// it cold with mapped postings and starts the server over it. model and
// sigs receive the fit (identical on every repetition).
func sealedSetup(r *run, set *labeledSet, rep int, model **core.Model, sigs *[]core.Signature) (*sealedSystem, error) {
	var err error
	if *model, *sigs, err = fit(set.rows, set.dim); err != nil {
		return nil, err
	}
	db, err := core.NewShardedDB(set.dim, sealedShards)
	if err != nil {
		return nil, err
	}
	if err := db.AddAll(*sigs); err != nil {
		db.Close()
		return nil, err
	}
	db.Seal()
	dir := filepath.Join(r.workdir, fmt.Sprintf("sealed-%d", rep))
	err = db.SaveDir(dir)
	db.Close()
	if err != nil {
		return nil, err
	}
	if db, err = core.LoadDirMapped(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(db, nil, serve.Config{})
	if err != nil {
		db.Close()
		return nil, err
	}
	hs, err := startHTTP(srv, r.tr)
	if err != nil {
		shutdown(srv)
		return nil, err
	}
	return &sealedSystem{dir: dir, db: db, http: hs}, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
