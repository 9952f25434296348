package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/percpu"
	"repro/internal/workload"
)

// interval is the daemon collection interval the paper classifies at.
const interval = 10 * time.Second

// class is one labeled source of intervals: a workload, or netperf
// receive under one myri10ge driver variant. The driver variants differ
// only in the network receive path, so they are the near-neighbour
// classes that keep classification accuracy off its ceiling.
type class struct {
	label   string
	spec    workload.Spec
	variant driver.Variant // 0 = no driver module loaded
}

func allClasses() []class {
	cs := []class{
		{label: "scp", spec: workload.Scp(experiments.NumCPU)},
		{label: "kcompile", spec: workload.Kcompile(experiments.NumCPU)},
		{label: "dbench", spec: workload.Dbench(experiments.NumCPU)},
		{label: "apachebench", spec: workload.Apachebench(experiments.NumCPU)},
	}
	for _, v := range driver.Variants() {
		cs = append(cs, class{label: v.String(), spec: driver.NetperfRx(experiments.NumCPU), variant: v})
	}
	return cs
}

// host is one simulated machine running one class's workload under the
// Fmeter tracer, with the logging daemon's collector attached.
type host struct {
	class class
	sys   *experiments.System
	run   *workload.Runner
	prev  []uint64 // counter totals at the last interval close
}

// bootHost boots a fresh simulated machine for c. Hosts with different
// seeds produce different interval streams.
func bootHost(c class, seed int64) (*host, error) {
	sys, err := experiments.NewSystem(experiments.Fmeter, seed, -1, -1)
	if err != nil {
		return nil, err
	}
	if c.variant != 0 {
		if err := sys.LoadDriver(c.variant); err != nil {
			return nil, err
		}
	}
	run, err := workload.NewRunner(sys.Eng, c.spec, seed+1)
	if err != nil {
		return nil, err
	}
	h := &host{class: c, sys: sys, run: run, prev: sys.Fm.Snapshot()}
	// The collector's debugfs export must carry exactly the tracer's
	// totals; generation below reads the totals directly to stay fast.
	got, err := sys.Col.ReadCounters()
	if err != nil {
		return nil, err
	}
	if !slices.Equal(got, h.prev) {
		return nil, fmt.Errorf("host %s: debugfs counters differ from the tracer's totals", c.label)
	}
	return h, nil
}

// runInterval advances the host's workload by one collection interval.
func (h *host) runInterval() error {
	_, err := h.run.RunInterval(interval)
	return err
}

// closeFast closes the interval from the tracer's totals, skipping the
// debugfs export and parse that bootHost checked once; it only
// generates inputs.
func (h *host) closeFast(id string) (*core.Document, error) {
	cur := h.sys.Fm.Snapshot()
	diff, err := percpu.Diff(h.prev, cur)
	if err != nil {
		return nil, err
	}
	h.prev = cur
	return core.NewDocument(id, h.class.label, interval, diff), nil
}

// labeledSet is generated input: the rows a DB is built from and the
// held-out intervals that query it, all distinct.
type labeledSet struct {
	rows    []*core.Document
	heldOut []*core.Document
	dim     int
}

// genCorpus collects rowsPer+heldPer distinct intervals per class, each
// class on its own simulated host seeded from seed, two hosts at a time.
// Every heldEvery-th interval of a class is held out, so held-out
// queries are interleaved with the rows in time rather than taken from
// one end of a drifting series. Duplicate intervals are never emitted.
func genCorpus(seed int64, classes []class, rowsPer, heldPer int) (*labeledSet, error) {
	type out struct {
		rows, held []*core.Document
		dim        int
	}
	heldEvery := 0
	if heldPer > 0 {
		heldEvery = (rowsPer + heldPer) / heldPer
	}
	res, err := parallel.Map(2, len(classes), func(ci int) (out, error) {
		c := classes[ci]
		h, err := bootHost(c, parallel.SplitSeed(seed, 11, int64(ci)))
		if err != nil {
			return out{}, err
		}
		seen := map[uint64]bool{}
		o := out{dim: h.sys.ST.Len()}
		for i := 0; len(o.rows) < rowsPer || len(o.held) < heldPer; i++ {
			if err := h.runInterval(); err != nil {
				return out{}, err
			}
			doc, err := h.closeFast(fmt.Sprintf("%s/%05d", c.label, i))
			if err != nil {
				return out{}, err
			}
			key := countsHash(doc)
			if seen[key] {
				continue
			}
			seen[key] = true
			held := heldEvery > 0 && len(o.held) < heldPer && (i%heldEvery == heldEvery-1 || len(o.rows) >= rowsPer)
			switch {
			case held:
				o.held = append(o.held, doc)
			case len(o.rows) < rowsPer:
				o.rows = append(o.rows, doc)
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	set := &labeledSet{dim: res[0].dim}
	seen := map[uint64]string{}
	for _, o := range res {
		for _, d := range slices.Concat(o.rows, o.held) {
			if prev, dup := seen[countsHash(d)]; dup {
				return nil, fmt.Errorf("generated intervals %s and %s repeat", prev, d.ID)
			}
			seen[countsHash(d)] = d.ID
		}
		set.rows = append(set.rows, o.rows...)
		set.heldOut = append(set.heldOut, o.held...)
	}
	// Rows interleave classes so shards and segments mix them.
	set.rows = interleave(set.rows, len(classes))
	set.heldOut = interleave(set.heldOut, len(classes))
	return set, nil
}

// interleave reorders per-class runs of equal length into round-robin
// order (class 0 row 0, class 1 row 0, ...).
func interleave(docs []*core.Document, classes int) []*core.Document {
	if classes <= 1 || len(docs)%classes != 0 {
		return docs
	}
	per := len(docs) / classes
	out := make([]*core.Document, 0, len(docs))
	for i := 0; i < per; i++ {
		for c := 0; c < classes; c++ {
			out = append(out, docs[c*per+i])
		}
	}
	return out
}

// countsHash fingerprints a document's counts for the no-repeat check.
func countsHash(d *core.Document) uint64 {
	keys := make([]int, 0, len(d.Counts))
	for k := range d.Counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	var b [16]byte
	for _, k := range keys {
		v := d.Counts[k]
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(k) >> (8 * i))
			b[8+i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// fit fits the tf-idf model on docs and embeds them, L2-normalized.
func fit(docs []*core.Document, dim int) (*core.Model, []core.Signature, error) {
	c, err := core.NewCorpus(dim)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range docs {
		if err := c.Add(d); err != nil {
			return nil, nil, err
		}
	}
	sigs, m, err := c.Signatures()
	if err != nil {
		return nil, nil, err
	}
	core.Normalize(sigs)
	return m, sigs, nil
}

// embed transforms and normalizes docs with a fitted model.
func embed(m *core.Model, docs []*core.Document) ([]core.Signature, error) {
	sigs, err := m.TransformAll(docs)
	if err != nil {
		return nil, err
	}
	core.Normalize(sigs)
	return sigs, nil
}
