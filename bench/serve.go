package main

// The serve workloads: parclustd runs as a subprocess on loopback and this
// process drives it over at most two keep-alive connections. An in-process
// Index over the same points is the replica the answers are checked against
// and, in traced runs, the warm Index every tenth request is replayed on.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parclust"
)

// dataset is the name every serve workload uploads its points under.
const dataset = "bench"

const (
	warmRate  = 300 // serve-warm's open loop, requests per second
	warmConns = 2   // serve-warm's keep-alive connections

	ingestBatch     = 100 // serve-ingest's inserted rows, and deleted ids, per round
	ingestKNN       = 50  // serve-ingest's k-NN queries per round
	ingestMaxRounds = 100 // bounds a segment's rounds, and so the pool of rows to insert

	// serveForks is the number of segments a serve workload's window is
	// split into, each measured on a parclustd started and set up afresh,
	// so that a run does not report one daemon process's luck. Over ten
	// interleaved pairs of serve-warm runs, five daemons instead of one
	// lowered the run-to-run spread of the k-NN median from 9.0% to 5.6%
	// and of setup_s from 16.5% to 8.2%. Each segment's set-up is one sample
	// of setup_s.
	serveForks = 5
)

// warmClasses is serve-warm's request mix, in equal shares.
var warmClasses = []string{"cut_labels", "cut_ndjson", "cut_nolabels", "knn", "range", "emst"}

// The hierarchies serve-warm serves, and the quantiles of their MST edge
// weights it cuts them at.
var (
	warmMinPts    = []int{10, 20}
	warmQuantiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99}
)

type cutParam struct {
	minPts int
	eps    float64
}

func cutPath(c cutParam, labels bool) string {
	p := fmt.Sprintf("/v1/datasets/%s/hdbscan?minpts=%d&eps=%s", dataset, c.minPts, strconv.FormatFloat(c.eps, 'g', -1, 64))
	if !labels {
		p += "&labels=false"
	}
	return p
}

func knnPath(q int) string { return fmt.Sprintf("/v1/datasets/%s/knn?q=%d&k=%d", dataset, q, knnK) }

func rangePath(q int, r float64) string {
	return fmt.Sprintf("/v1/datasets/%s/range?q=%d&r=%s", dataset, q, strconv.FormatFloat(r, 'g', -1, 64))
}

const emstPath = "/v1/datasets/" + dataset + "/emst?edges=false"

// quantile returns the q-quantile of the MST edge weights.
func quantile(edges []parclust.Edge, q float64) float64 {
	w := sortedWeights(edges)
	return w[int(q*float64(len(w)-1))]
}

// server is how a serve workload starts each of its daemons.
type server struct {
	pts   parclust.Points
	conns int                 // keep-alive connections the client opens
	warm  func(*daemon) error // requests that build everything the window reads
}

// tally sums what a run's daemons did during their timed segments.
type tally struct {
	work engineCounters
	cpu  time.Duration
}

func (t *tally) add(before, after serverStats, cpu time.Duration) {
	b, a := before.Datasets[dataset].Counters, after.Datasets[dataset].Counters
	t.work.TreeBuilds += a.TreeBuilds - b.TreeBuilds
	t.work.MSTBuilds += a.MSTBuilds - b.MSTBuilds
	t.work.CutBuilds += a.CutBuilds - b.CutBuilds
	t.work.CutHits += a.CutHits - b.CutHits
	t.work.TreePatches += a.TreePatches - b.TreePatches
	t.work.Compactions += a.Compactions - b.Compactions
	t.cpu += cpu
}

// segment measures one segment of a serve workload's window on a fresh
// daemon. It starts parclustd, uploads the points and warms the daemon,
// timing all of that into the setup series. It then runs timed, records the
// daemon's peak resident set into the mem series and its stage work and CPU
// time into t, runs then (untimed checks and probes), and stops the daemon.
func (s server) segment(e *env, out *outcome, t *tally, timed, then func(*daemon) error) error {
	st, start := markSteal(), time.Now()
	d, err := startDaemon(e.daemon, s.conns)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := d.upload(dataset, s.pts, false); err != nil {
		return err
	}
	if err := s.warm(d); err != nil {
		return err
	}
	out.sample("setup", lessSteal(time.Since(start), st).Seconds())

	before, err := d.stats()
	if err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	if err := timed(d); err != nil {
		return err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	t.add(before, after, cpu1-cpu0)
	rss, err := peakRSS(d.pid())
	if err != nil {
		return err
	}
	out.sample("mem", rss)
	return then(d)
}

// scheduled is one request of serve-warm's open loop.
type scheduled struct {
	request
	id     int64  // the request id its trace spans carry
	replay func() // the same query on the in-process replica
}

// sent is the outcome of one timed request.
type sent struct {
	latency time.Duration // see openLoop
	late    time.Duration // how long after its due time a busy worker sent it
	stolen  time.Duration // the steal it waited through while in flight (see since)
	err     error
}

// openLoop sends reqs on a fixed schedule — request i is due at
// start + i/rate, whatever happened before — from conns workers. A request
// due while every worker is still busy goes out late, and its latency
// counts from the due time, so the wait a slow response imposes on later
// requests is measured. A request due while its worker is idle is timed
// from when it was actually sent: the worker sleeps until the due time, and
// the sleep's wake-up slack (up to about a millisecond) is the generator's
// error, not the server's. Under a tracer every request is a root span and
// every tenth also gets a replay span on the in-process replica.
func openLoop(d *daemon, reqs []scheduled, rate float64, conns int, tr *tracer) []sent {
	res := make([]sent, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				wait := time.Until(due)
				if wait > 0 {
					time.Sleep(wait)
				}
				st, at := markSteal(), time.Now()
				_, err := d.send(r.request)
				done := time.Now()
				s := sent{latency: done.Sub(due), late: at.Sub(due), stolen: st.since(), err: err}
				if wait > 0 {
					s.latency, s.late = done.Sub(at), 0
				}
				res[i] = s
				if tr != nil {
					tr.add(tr.newID(), 0, r.id, "daemon."+r.class, at, done)
					if r.id%10 == 1 {
						tr.time("engine."+r.class, 0, r.id, r.replay)
					}
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// runWarm runs serve-warm over n points.
func runWarm(e *env, n int) (*outcome, error) {
	out := newOutcome()
	pts := parclust.GenerateVarden(n, 2, e.seed)
	replica, err := parclust.NewIndex(pts, nil)
	if err != nil {
		return nil, err
	}
	var cuts []cutParam
	hier := map[int]*parclust.Hierarchy{}
	for _, m := range warmMinPts {
		h, err := replica.HDBSCAN(m)
		if err != nil {
			return nil, err
		}
		hier[m] = h
		for _, q := range warmQuantiles {
			cuts = append(cuts, cutParam{m, quantile(h.MST, q)})
		}
	}
	radius := cuts[0].eps
	srv := server{pts: pts, conns: warmConns, warm: func(d *daemon) error {
		// Build every served hierarchy and fill its cut cache.
		for _, c := range cuts {
			if _, err := d.fetch("GET", cutPath(c, false), nil, false); err != nil {
				return err
			}
		}
		_, err := d.fetch("GET", emstPath, nil, false)
		return err
	}}

	// The schedule: classes in equal shares, parameters uniform, all from
	// the seed.
	rng := rand.New(rand.NewSource(e.seed))
	reqs := make([]scheduled, int(warmRate*e.seconds.Seconds()))
	for i := range reqs {
		class := warmClasses[rng.Intn(len(warmClasses))]
		c, q := cuts[rng.Intn(len(cuts))], rng.Intn(n)
		r := scheduled{request: request{class: class}, id: int64(i + 1)}
		switch class {
		case "cut_labels", "cut_ndjson", "cut_nolabels":
			r.path = cutPath(c, class != "cut_nolabels")
			r.replay = func() { hier[c.minPts].ClustersAt(c.eps) }
		case "knn":
			r.path = knnPath(q)
			r.replay = func() { _, _ = replica.KNN(int32(q), knnK) }
		case "range":
			r.path = rangePath(q, radius)
			r.replay = func() { _, _ = replica.RangeQuery(int32(q), radius) }
		case "emst":
			r.path = emstPath
			r.replay = func() { _, _ = replica.EMST() }
		}
		reqs[i] = r
	}

	var (
		t         tally
		lateSends int
	)
	err = window(e, func() error {
		var late []float64
		for f := 0; f < serveForks; f++ {
			part := reqs[f*len(reqs)/serveForks : (f+1)*len(reqs)/serveForks]
			err := srv.segment(e, out, &t, func(d *daemon) error {
				for i, s := range openLoop(d, part, warmRate, warmConns, e.trace) {
					out.op(s.err)
					late = append(late, ms(s.late))
					if s.late > 0 {
						lateSends++
					}
					series := part[i].class
					switch series {
					case "cut_labels", "cut_ndjson":
						series = "cluster"
					case "cut_nolabels":
						series = "cut"
					}
					servedSample(out, series, s.latency, s.stolen)
				}
				return nil
			}, func(d *daemon) error {
				checkWarm(&out.checks, d, replica, hier, cuts)
				if e.trace != nil && f == serveForks-1 {
					return probeDaemon(e, out, pts, false, radius, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		p, lateTail := tail(sortedCopy(late))
		fmt.Fprintf(e.log, "  %d requests at %d/s on %d connections to %d daemons in turn, %d due while all were busy (lateness p%g %.3f ms); range p50 %.3f ms; server CPU %.0f us/request\n",
			len(reqs), warmRate, warmConns, serveForks, lateSends, p, lateTail, median(out.samples["range"]), float64(t.cpu)/float64(time.Microsecond)/float64(len(reqs)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	setEndToEnd(out)
	if e.trace != nil {
		setEngineCounters(out, t.work, len(reqs), "per request")
		out.set("bench.late_sends", float64(lateSends), len(reqs), "count")
		layerReps(e, out, pts)
		setLayerMetrics(e, out, len(reqs))
	}
	return out, nil
}

// servedSample records a served request's latency into a series. The
// cluster and emst series, like every sample of cluster_ms, emst_ms and
// setup_s, leave out the steal the request waited through (see lessSteal).
func servedSample(out *outcome, series string, latency, stolen time.Duration) {
	if series == "cluster" || series == "emst" {
		latency = max(0, latency-stolen)
	}
	out.sample(series, ms(latency))
}

// checkWarm compares what the daemon serves with the replica's answers:
// labels of every served cut (buffered and streamed), k-NN ids, and the
// EMST weight.
func checkWarm(c *checker, d *daemon, replica *parclust.Index, hier map[int]*parclust.Hierarchy, cuts []cutParam) {
	for _, cp := range cuts {
		want := hier[cp.minPts].ClustersAt(cp.eps).Labels
		var doc struct {
			Labels []int32 `json:"labels"`
		}
		if err := d.fetchJSON(cutPath(cp, true), &doc); err != nil {
			c.failf("fetch labels: %v", err)
			continue
		}
		c.sameLabels(fmt.Sprintf("served labels minpts=%d eps=%g", cp.minPts, cp.eps), want, doc.Labels)
		got, err := fetchNDJSONLabels(d, cutPath(cp, true))
		if err != nil {
			c.failf("stream labels: %v", err)
			continue
		}
		c.sameLabels(fmt.Sprintf("streamed labels minpts=%d eps=%g", cp.minPts, cp.eps), want, got)
	}
	for q := 0; q < replica.N(); q += max(1, replica.N()/20) {
		want, err := replica.KNN(int32(q), knnK)
		if err != nil {
			c.failf("replica k-NN: %v", err)
			return
		}
		got, err := fetchKNN(d, q)
		if err != nil {
			c.failf("fetch k-NN: %v", err)
			return
		}
		c.sameNeighbors(fmt.Sprintf("served k-NN of point %d", q), want, got)
	}
	edges, err := replica.EMST()
	if err != nil {
		c.failf("replica EMST: %v", err)
		return
	}
	var doc struct {
		TotalWeight float64 `json:"total_weight"`
	}
	if err := d.fetchJSON(emstPath, &doc); err != nil {
		c.failf("fetch EMST: %v", err)
		return
	}
	c.sameBits("served EMST total weight", totalWeight(edges), doc.TotalWeight)
}

// fetchNDJSONLabels streams a labelled cut and reassembles its labels from
// the chunk records.
func fetchNDJSONLabels(d *daemon, path string) ([]int32, error) {
	data, err := d.fetch("GET", path, nil, true)
	if err != nil {
		return nil, err
	}
	var labels []int32
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	for sc.Scan() {
		var rec struct {
			Labels []int32 `json:"labels"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("decode NDJSON record: %w", err)
		}
		labels = append(labels, rec.Labels...)
	}
	return labels, sc.Err()
}

func fetchKNN(d *daemon, q int) ([]int32, error) {
	var doc struct {
		Neighbors []struct {
			ID int32 `json:"id"`
		} `json:"neighbors"`
	}
	if err := d.fetchJSON(knnPath(q), &doc); err != nil {
		return nil, err
	}
	ids := make([]int32, len(doc.Neighbors))
	for i, nb := range doc.Neighbors {
		ids[i] = nb.ID
	}
	return ids, nil
}

// ingest is what serve-ingest's rounds run on: the base set every daemon
// starts from, the pool of rows a segment inserts in order, and the two
// cuts each round requests.
type ingest struct {
	base, pool      parclust.Points
	requery, second cutParam
	rng             *rand.Rand // picks deleted ids and k-NN queries
	rounds          int        // rounds over the window's segments
}

// runIngest runs serve-ingest with n live points.
func runIngest(e *env, n int) (*outcome, error) {
	out := newOutcome()
	// The base set and the pool of rows to insert are one SS-varden draw,
	// shuffled so that inserted rows come from the same distribution as the
	// base and every round sees the same kind of live set.
	rows := parclust.GenerateVarden(n+ingestMaxRounds*ingestBatch, 2, e.seed).Rows()
	rand.New(rand.NewSource(e.seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	in := &ingest{base: parclust.PointsFromSlices(rows[:n]), pool: parclust.PointsFromSlices(rows[n:]), rng: rand.New(rand.NewSource(e.seed + 1))}
	ref, err := parclust.NewIndex(in.base, nil)
	if err != nil {
		return nil, err
	}
	h, err := ref.HDBSCAN(minPts)
	if err != nil {
		return nil, err
	}
	in.requery, in.second = cutParam{minPts, quantile(h.MST, 0.9)}, cutParam{minPts, quantile(h.MST, 0.5)}
	srv := server{pts: in.base, conns: 1, warm: func(d *daemon) error {
		for _, p := range []string{cutPath(in.requery, false), cutPath(in.second, false), emstPath} {
			if _, err := d.fetch("GET", p, nil, false); err != nil {
				return err
			}
		}
		return nil
	}}

	var t tally
	err = window(e, func() error {
		for f := 0; f < serveForks; f++ {
			var live []int64
			err := srv.segment(e, out, &t, func(d *daemon) error {
				var err error
				live, err = in.segment(e, out, d, e.seconds/serveForks)
				return err
			}, func(d *daemon) error {
				// The mutation contract: the final labels equal a fresh
				// Index's over the live rows, taken in external-id order.
				final := in.liveRows(live)
				checkIngest(&out.checks, d, final, in.requery)
				if e.trace != nil && f == serveForks-1 {
					return probeDaemon(e, out, final, false, in.second.eps, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "  %d rounds on %d live points, on %d daemons in turn: insert p50 %.3f ms, delete p50 %.3f ms\n",
		in.rounds, n, serveForks, median(out.samples["insert"]), median(out.samples["delete"]))
	setEndToEnd(out)

	if e.trace != nil {
		setEngineCounters(out, t.work, in.rounds, "per round")
		out.set("bench.late_sends", 0, in.rounds, "closed loop")
		// The base set, unlike a final live set, does not depend on how many
		// rounds fit into the window, so its work counters repeat.
		layerReps(e, out, in.base)
		setLayerMetrics(e, out, in.rounds)
	}
	return out, nil
}

// segment runs rounds against d, which holds the base set, for the given
// time (and at least one round), and returns the external ids of the live
// points. Each round inserts the pool's next rows, deletes as many random
// live points, sends k-NN queries on random base points, and then requests
// both cuts and the EMST. In traced runs an in-process replica mirrors every
// mutation, so that replayed queries see the daemon's live set.
func (in *ingest) segment(e *env, out *outcome, d *daemon, length time.Duration) ([]int64, error) {
	tr := e.trace
	timed := func(class string, req int64, method, path string, body []byte) []byte {
		var data []byte
		var err error
		st := markSteal()
		dur := tr.time("daemon."+class, 0, req, func() { data, err = d.fetch(method, path, body, false) })
		out.op(err)
		servedSample(out, class, dur, st.since())
		return data
	}
	var replica *parclust.Index
	if tr != nil {
		var err error
		if replica, err = parclust.NewIndex(in.base, nil); err != nil {
			return nil, err
		}
	}
	n := in.base.N
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	deadline := time.Now().Add(length)
	for round := 0; round < ingestMaxRounds && (round == 0 || time.Now().Before(deadline)); round++ {
		in.rounds++
		req := int64(in.rounds)
		replay := tr != nil && in.rounds%10 == 1
		rows := parclust.Points{Data: in.pool.Data[round*ingestBatch*2 : (round+1)*ingestBatch*2], N: ingestBatch, Dim: 2}
		var ins struct {
			IDs []int64 `json:"ids"`
		}
		if err := json.Unmarshal(timed("insert", req, "POST", "/v1/datasets/"+dataset+"/points", pointsBody(rows, "")), &ins); err != nil {
			out.checks.failf("round %d: decode insert response: %v", round, err)
		}
		for j, id := range ins.IDs {
			if want := int64(n + round*ingestBatch + j); id != want {
				out.checks.failf("round %d: insert assigned id %d, want %d", round, id, want)
				break
			}
		}
		live = append(live, ins.IDs...)
		del := make([]int64, ingestBatch)
		for j := range del {
			k := in.rng.Intn(len(live))
			del[j] = live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		body, _ := json.Marshal(map[string][]int64{"ids": del}) // cannot fail on an int64 slice
		timed("delete", req, "DELETE", "/v1/datasets/"+dataset+"/points", body)
		if replica != nil {
			if _, err := replica.Insert(rows); err != nil {
				return nil, err
			}
			if err := replica.Delete(del); err != nil {
				return nil, err
			}
		}
		for j := 0; j < ingestKNN; j++ {
			q := in.rng.Intn(n)
			timed("knn", req, "GET", knnPath(q), nil)
			if replay && j == 0 {
				tr.time("engine.knn", 0, req, func() { _, _ = replica.KNN(int32(q), knnK) })
			}
		}
		timed("cluster", req, "GET", cutPath(in.requery, false), nil)
		timed("cut", req, "GET", cutPath(in.second, false), nil)
		timed("emst", req, "GET", emstPath, nil)
		if replay {
			tr.time("engine.requery", 0, req, func() {
				if h, err := replica.HDBSCAN(minPts); err == nil {
					h.ClustersAt(in.requery.eps)
				}
			})
			tr.time("engine.emst", 0, req, func() { _, _ = replica.EMST() })
		}
	}
	return live, nil
}

// liveRows returns the rows of the given external ids in increasing id
// order: ids below the base size are base rows, the others pool rows in
// insertion order.
func (in *ingest) liveRows(live []int64) parclust.Points {
	ids := slices.Sorted(slices.Values(live))
	rows := parclust.NewPoints(len(ids), 2)
	for i, id := range ids {
		src := in.base
		if id >= int64(in.base.N) {
			src, id = in.pool, id-int64(in.base.N)
		}
		copy(rows.Data[2*i:2*i+2], src.Data[2*id:2*id+2])
	}
	return rows
}

func checkIngest(c *checker, d *daemon, live parclust.Points, cut cutParam) {
	fresh, err := parclust.NewIndex(live, nil)
	if err != nil {
		c.failf("fresh index over the live rows: %v", err)
		return
	}
	h, err := fresh.HDBSCAN(cut.minPts)
	if err != nil {
		c.failf("fresh HDBSCAN*: %v", err)
		return
	}
	var doc struct {
		Labels []int32 `json:"labels"`
	}
	if err := d.fetchJSON(cutPath(cut, true), &doc); err != nil {
		c.failf("fetch final labels: %v", err)
		return
	}
	c.sameLabels("labels after mutations vs a fresh Index over the live rows", h.ClustersAt(cut.eps).Labels, doc.Labels)
}

// setEngineCounters records the daemons' stage work over the window,
// divided by the number of requests or rounds they served.
func setEngineCounters(out *outcome, work engineCounters, per int, stat string) {
	div := float64(max(per, 1))
	out.set("engine.tree_builds", float64(work.TreeBuilds)/div, per, stat)
	out.set("engine.mst_builds", float64(work.MSTBuilds)/div, per, stat)
	out.set("engine.compactions", float64(work.Compactions)/div, per, stat)
	out.set("engine.tree_patches", float64(work.TreePatches)/div, per, stat)
	out.set("engine.cut_hit_ratio", hitRatio(work.CutHits, work.CutBuilds), per, "over the window")
}

// layerReps measures the layers directly on a serve workload's points, with
// the same traced repetition the batch workloads run.
func layerReps(e *env, out *outcome, pts parclust.Points) {
	in := &pipelineInput{pts: pts, queries: queryIDs(pts.N, 200, e.seed)}
	for rep := 1; rep <= 3; rep++ {
		runRep(e, out, in, -int64(rep), false)
	}
}

// probeCount is the number of requests of each class the daemon probe
// sends.
const probeCount = 30

// probeDaemon measures the daemon layer on its own: probeCount sequential
// requests of each class against one warm dataset, then as many inserts
// and deletes. It runs after the window of a traced run, on d or, when d is
// nil, on a daemon started over pts for the purpose.
func probeDaemon(e *env, out *outcome, pts parclust.Points, f32 bool, eps float64, d *daemon) error {
	if d == nil {
		var err error
		if d, err = startDaemon(e.daemon, 1); err != nil {
			return err
		}
		defer d.stop()
		if err := d.upload(dataset, pts, f32); err != nil {
			return err
		}
	}
	cut := cutParam{minPts, eps}
	for _, p := range []string{cutPath(cut, false), emstPath} {
		if _, err := d.fetch("GET", p, nil, false); err != nil {
			return err
		}
	}
	st, err := d.stats()
	if err != nil {
		return err
	}
	out.set("registry.approx_mb", float64(st.Registry.Bytes)/(1<<20), 1, "registry charge")

	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	var bytes int64
	reads := 0
	probe := func(class string, r func(i int) request) error {
		var lat []float64
		for i := 0; i < probeCount; i++ {
			start := time.Now()
			n, err := d.send(r(i))
			if err != nil {
				return fmt.Errorf("daemon probe: %w", err)
			}
			lat = append(lat, ms(time.Since(start)))
			bytes += n
			reads++
		}
		out.set("daemon."+class+"_p50_ms", median(lat), len(lat), "median")
		return nil
	}
	q := func(i int) int { return (i * 7919) % pts.N }
	for _, p := range []struct {
		class string
		req   func(i int) request
	}{
		{"cut_labels", func(int) request { return request{"cut_labels", cutPath(cut, true)} }},
		{"cut_ndjson", func(int) request { return request{"cut_ndjson", cutPath(cut, true)} }},
		{"cut_nolabels", func(int) request { return request{"cut_nolabels", cutPath(cut, false)} }},
		{"knn", func(i int) request { return request{"knn", knnPath(q(i))} }},
		{"range", func(i int) request { return request{"range", rangePath(q(i), eps)} }},
		{"emst", func(int) request { return request{"emst", emstPath} }},
	} {
		if err := probe(p.class, p.req); err != nil {
			return err
		}
	}
	cpu, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	out.set("daemon.server_cpu_us_per_req", float64(cpu-cpu0)/float64(time.Microsecond)/float64(reads), reads, "mean")
	out.set("daemon.resp_kb_per_req", float64(bytes)/1024/float64(reads), reads, "mean")

	// Inserts of ten existing rows each, then deletes of what they added.
	const rows = 10
	var added [][]int64
	for i := 0; i < probeCount; i++ {
		lo := (i * rows) % max(1, pts.N-rows)
		body := pointsBody(parclust.Points{Data: pts.Data[lo*pts.Dim : (lo+rows)*pts.Dim], N: rows, Dim: pts.Dim}, "")
		start := time.Now()
		data, err := d.fetch("POST", "/v1/datasets/"+dataset+"/points", body, false)
		out.sample("probe.insert", ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("daemon probe: %w", err)
		}
		var ins struct {
			IDs []int64 `json:"ids"`
		}
		if err := json.Unmarshal(data, &ins); err != nil {
			return fmt.Errorf("daemon probe: decode insert: %w", err)
		}
		added = append(added, ins.IDs)
	}
	for _, ids := range added {
		body, _ := json.Marshal(map[string][]int64{"ids": ids}) // cannot fail on an int64 slice
		start := time.Now()
		if _, err := d.fetch("DELETE", "/v1/datasets/"+dataset+"/points", body, false); err != nil {
			return fmt.Errorf("daemon probe: %w", err)
		}
		out.sample("probe.delete", ms(time.Since(start)))
	}
	out.setMedian("daemon.insert_p50_ms", "probe.insert")
	out.setMedian("daemon.delete_p50_ms", "probe.delete")
	return nil
}
