package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/percpu"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// live-ingest sizing: ~1k seed rows and 2 shards of 128-row segments,
// so most answers come from the active tail and freshly sealed
// segments, and the whole DB stays inside a 4 MiB L2.
const (
	liveSeedPerClass = 143
	liveHeldPerClass = 100
	liveShards       = 2
	liveSegment      = 128
	liveTierFanout   = 4
	// liveIngestRate is intervals closed (and ingested) per second over
	// all hosts; liveQueryRate is the open-loop TopK rate beside it.
	liveIngestRate = 50
	liveQueryRate  = 100
	// answerableWithin bounds how long an ingested interval may take to
	// show up in its own TopK before it counts as unanswerable.
	answerableWithin = time.Second
)

type liveSystem struct {
	dir   string
	db    *core.DB
	http  *httpServer
	model *core.Model
}

// ingestLog is what the ingest loop leaves for the metrics and oracle;
// it is read only after the loop has returned.
type ingestLog struct {
	lag  []float64 // ms from scheduled close to answerable
	sigs []core.Signature
}

func runLiveIngest(r *run) error {
	t0 := time.Now()
	classes := allClasses()
	set, err := genCorpus(r.seed, classes, liveSeedPerClass, liveHeldPerClass)
	if err != nil {
		return err
	}
	hosts := make([]*host, len(classes))
	for i, c := range classes {
		if hosts[i], err = bootHost(c, r.seed*1000+int64(100+i)); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "live-ingest: %d seed rows, %d query intervals, %d hosts, generated in %.2f s\n",
		len(set.rows), len(set.heldOut), len(hosts), time.Since(t0).Seconds())

	var seedSigs []core.Signature
	rep := 0
	setupS, sys, err := timeSetup(setupReps, func() (*liveSystem, error) {
		rep++
		return liveSetup(r, set, rep, &seedSigs)
	}, func(s *liveSystem) { s.http.stop(); os.RemoveAll(s.dir) })
	if err != nil {
		return err
	}
	r.put("setup_s", "s", setupS)
	defer os.RemoveAll(sys.dir)
	defer r.stopServer(sys.http)
	if !r.trace {
		set.rows = nil // the system holds its own copy now
	}

	queries, err := embed(sys.model, set.heldOut)
	if err != nil {
		return err
	}
	qv := make([]*vecmath.Sparse, len(queries))
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		qv[i] = q.W
		if bodies[i], err = queryBody(q.W, topkK, "cosine"); err != nil {
			return err
		}
	}
	mix := newQueryMix(r.seed+7, len(queries), 1<<17, 0)
	ingestConn, queryConn := newConn(), newConn()
	defer ingestConn.close()
	defer queryConn.close()

	log := &ingestLog{}
	next := 0 // intervals closed so far, over all phases
	offset := 0
	phaseFor := func(dur time.Duration, tr *tracer) (*loopStats, []float64, error) {
		var wg sync.WaitGroup
		var ingestErr error
		lag0 := len(log.lag)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int(liveIngestRate * dur.Seconds())
			ingestErr = ingestLoop(r, tr, sys, hosts, ingestConn, log, next, n)
			next += n
		}()
		base := offset
		st := openLoop(liveQueryRate, dur, []*conn{queryConn}, tr, func(c *conn, i int, req, span int64, wrote *time.Time) error {
			q := mix.q[(base+i)%len(mix.q)]
			body, err := c.post(sys.http.url+"/v1/topk", bodies[q], req, span, wrote)
			if err != nil {
				return err
			}
			_, err = parseTopK(body, topkK)
			return err
		})
		wg.Wait()
		offset += len(st.lat)
		st.account(&r.ops)
		return st, log.lag[lag0:], ingestErr
	}
	// Unmeasured warm-up: connections, first seals and snapshots.
	if _, _, err := phaseFor(time.Second, nil); err != nil {
		return err
	}

	// The operation is one interval close, timed from its scheduled
	// close until TopK with its own signature returns its doc ID.
	if !r.trace {
		ph := startPhase()
		st, lag, err := phaseFor(r.share(1), nil)
		if err != nil {
			return err
		}
		pst := ph.end()
		r.putLatency(lag, latencyWindows)
		r.put("heap_mb", "MB", pst.peakHeap/1e6)
		fmt.Fprintf(os.Stderr, "queries %d/s: %d, pooled p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, generator late ≤ %.3f ms; ingest %d/s: %d intervals, pooled lag p50 %.3f ms p90 %.3f ms p99 %.3f ms\n",
			liveQueryRate, len(st.lat), st.p(0.5), st.p(tailQ), st.p(0.99), st.lateMax, liveIngestRate, len(lag), quantile(lag, 0.5), quantile(lag, tailQ), quantile(lag, 0.99))
	} else {
		half := r.share(0.5)
		plain, plainLag, err := phaseFor(half, nil)
		if err != nil {
			return err
		}
		before := sys.http.srv.Metrics()
		ph := startPhase()
		depth := sampleQueueDepth(sys.http.srv)
		traced, tracedLag, err := phaseFor(half, r.tr)
		maxDepth := depth()
		if err != nil {
			return err
		}
		pst := ph.end()
		after := sys.http.srv.Metrics()
		r.putRuntime(pst, int64(len(traced.lat)+len(tracedLag)))
		r.putServe(traced, before, after, maxDepth)
		r.putOverhead(plain, traced)
		fmt.Fprintf(os.Stderr, "tracing overhead: fresh lag p50 %.3f ms untraced vs %.3f ms traced\n",
			quantile(plainLag, 0.5), quantile(tracedLag, 0.5))
		r.tr.report(os.Stderr, "interval", "request")
		if err := r.sweep(sweepInputs{rows: set.rows, held: set.heldOut, dim: set.dim, db: sys.db, hosts: hosts}); err != nil {
			return err
		}
	}

	// Oracle: with ingest quiesced, served TopK answers for the query
	// pool and for a sample of ingested intervals must equal an
	// exhaustive scan over the same rows.
	all := append(append([]core.Signature(nil), seedSigs...), log.sigs...)
	ref, err := referenceDB(all, liveShards)
	if err != nil {
		return err
	}
	defer ref.Close()
	checkQ := append([]*vecmath.Sparse(nil), qv...)
	for i := 0; i < len(log.sigs); i += max(1, len(log.sigs)/checkedAnswers) {
		checkQ = append(checkQ, log.sigs[i].W)
	}
	kept := newAnswers(len(checkQ))
	for i, q := range checkQ {
		body, err := queryBody(q, topkK, "cosine")
		if err != nil {
			return err
		}
		resp, err := queryConn.post(sys.http.url+"/v1/topk", body, 0, 0, nil)
		if err == nil {
			var hits []wireHit
			if hits, err = parseTopK(resp, topkK); err == nil {
				kept.keepTopK(i, hits)
			}
		}
		if err != nil {
			r.ops.fail("oracle query: " + err.Error())
			continue
		}
		r.ops.ok()
	}
	if err := kept.check(ref, checkQ, &r.ops); err != nil {
		return err
	}
	// Ground truth: the share of held-out intervals the live DB, seed
	// rows plus every ingested interval, classifies into their true class.
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
	return nil
}

// liveSetup fits the model on the seed rows, builds the live DB (small
// segments, tier compaction), snapshots it and starts the server with
// ingest and the snapshot loop on.
func liveSetup(r *run, set *labeledSet, rep int, seedSigs *[]core.Signature) (*liveSystem, error) {
	sys := &liveSystem{dir: filepath.Join(r.workdir, fmt.Sprintf("live-%d", rep))}
	var err error
	if sys.model, *seedSigs, err = fit(set.rows, set.dim); err != nil {
		return nil, err
	}
	if sys.db, err = core.NewShardedDB(set.dim, liveShards); err != nil {
		return nil, err
	}
	sys.db.SetSegmentSize(liveSegment)
	err = sys.db.SetCompactionPolicy(core.CompactionPolicy{TierFanout: liveTierFanout})
	if err == nil {
		err = sys.db.AddAll(*seedSigs)
	}
	if err == nil {
		err = sys.db.SaveDir(sys.dir)
	}
	if err != nil {
		sys.db.Close()
		return nil, err
	}
	srv, err := serve.New(sys.db, sys.model, serve.Config{SnapshotDir: sys.dir, SnapshotEvery: time.Second})
	if err != nil {
		sys.db.Close()
		return nil, err
	}
	if sys.http, err = startHTTP(srv, r.tr); err != nil {
		shutdown(srv)
		return nil, err
	}
	return sys, nil
}

// ingestLoop closes n intervals at liveIngestRate, round-robin over the
// hosts, starting with interval number first. Each close reads the
// host's counters through debugfs, diffs them, POSTs the document to
// /v1/ingest and then queries the interval's own signature until TopK
// returns its doc ID. The lag runs from the scheduled close, so a loop
// that falls behind schedule shows as lag.
func ingestLoop(r *run, tr *tracer, sys *liveSystem, hosts []*host, c *conn, log *ingestLog, first, n int) error {
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		seq := first + i
		h := hosts[seq%len(hosts)]
		// The workload runs during the interval, before its close.
		if err := tr.time(0, 0, "kernel.interval", h.runInterval); err != nil {
			return err
		}
		due := start.Add(time.Duration(float64(i) / liveIngestRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		req := int64(1_000_000 + seq)
		root := tr.newID()
		if tr != nil {
			tr.add(root, req, "gen.late", due, time.Now())
		}
		sig, added, answerable, err := closeAndIngest(tr, sys, h, c, seq, req, root)
		if err != nil {
			return err
		}
		end := time.Now()
		lag := ms(end.Sub(due))
		switch {
		case !added:
			r.ops.fail("ingest request failed")
			lag = ms(reqTimeout)
		case !answerable:
			r.ops.fail("ingested interval never became answerable")
			lag = ms(reqTimeout)
		default:
			r.ops.ok()
			tr.record(root, 0, req, "interval", due, end)
		}
		log.lag = append(log.lag, lag)
		if added {
			log.sigs = append(log.sigs, sig)
		}
		if tr != nil {
			tr.time(0, 0, "trace.snapshot", func() error { h.sys.Fm.Snapshot(); return nil })
		}
	}
	return nil
}

// closeAndIngest is one interval close on the blocking path of the lag.
// It reports whether the server acknowledged the interval and whether
// the interval then became answerable in time; an error is returned
// only for failures of the simulated host itself.
func closeAndIngest(tr *tracer, sys *liveSystem, h *host, c *conn, seq int, req, root int64) (sig core.Signature, added, answerable bool, err error) {
	var cur, diff []uint64
	if err = tr.time(root, req, "daemon.read_counters", func() error {
		var err error
		cur, err = h.sys.Col.ReadCounters()
		return err
	}); err != nil {
		return
	}
	if err = tr.time(root, req, "percpu.diff", func() error {
		var err error
		diff, err = percpu.Diff(h.prev, cur)
		return err
	}); err != nil {
		return
	}
	h.prev = cur
	doc := core.NewDocument(fmt.Sprintf("live-%d-%s", seq, h.class.label), h.class.label, interval, diff)
	if err = tr.time(root, req, "core.transform", func() error {
		var err error
		sig, err = sys.model.Transform(doc)
		core.Normalize([]core.Signature{sig})
		return err
	}); err != nil {
		return
	}
	body, err := json.Marshal(struct {
		Documents []*core.Document `json:"documents"`
	}{[]*core.Document{doc}})
	if err != nil {
		return
	}
	var wrote time.Time
	wp := (*time.Time)(nil)
	if tr != nil {
		wp = &wrote
	}
	span := tr.newID()
	t0 := time.Now()
	resp, err := c.post(sys.http.url+"/v1/ingest", body, req, span, wp)
	tr.record(span, root, req, "client.ingest", t0, time.Now())
	var ack struct {
		Added int `json:"added"`
	}
	if err != nil || json.Unmarshal(resp, &ack) != nil || ack.Added != 1 {
		return sig, false, false, nil
	}
	probe, err := queryBody(sig.W, topkK, "cosine")
	if err != nil {
		return sig, true, false, err
	}
	deadline := time.Now().Add(answerableWithin)
	for time.Now().Before(deadline) {
		span := tr.newID()
		t0 := time.Now()
		resp, err := c.post(sys.http.url+"/v1/topk", probe, req, span, wp)
		tr.record(span, root, req, "client.probe", t0, time.Now())
		if err == nil {
			if hits, err := parseTopK(resp, topkK); err == nil {
				for _, hit := range hits {
					if hit.DocID == doc.ID {
						return sig, true, true, nil
					}
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	return sig, true, false, nil
}
