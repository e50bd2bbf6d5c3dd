package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	bt "backtrace"
)

// A pass builds its initial graph at least minSetupReps times and until
// minSetupTime has passed (at most maxSetupReps); setup_s is the median,
// and the last build is the one measured. Small graphs build in
// milliseconds, so they are built many times to steady the median.
const (
	minSetupReps = 5
	maxSetupReps = 200
	minSetupTime = 500 * time.Millisecond
)

// maxDrainRounds bounds the drain phase. Garbage still present after it is
// reported as garbage_left, which fails the run.
const maxDrainRounds = 400

// passResult is everything one pass (setup, steady phase, drain, gate)
// measured.
type passResult struct {
	setupS []float64

	steadyWall time.Duration
	rounds     int       // steady-phase rounds
	roundNs    []float64 // steady-phase round wall times
	drainRound int

	steps, failed int
	stepNs        []float64
	maxLag        time.Duration

	reclaimRounds []float64
	reclaimNs     []float64

	steady regDiff // registry change over the steady phase
	all    regDiff // over steady phase plus drain
	rt     [2]runtimeStats

	traceStats traceStats // summed over steady-phase commits

	liveHeapBytes float64

	gate gateResult

	rec, crec *recorder // generator and collector spans (traced pass)
	sink      *sink
	codec     *timedCodec
	wire      codecTotals // steady phase
}

type traceStats struct {
	traced, retraced, unions, memoHits, collected int64
}

func (t *traceStats) add(rep bt.TraceReport) {
	t.traced += rep.Stats.ObjectsTraced
	t.retraced += rep.Stats.OutsetRetraced
	t.unions += rep.Stats.Unions
	t.memoHits += rep.Stats.MemoHits
	t.collected += int64(rep.Collected)
}

// collector runs collection rounds and turns death stamps into reclaim
// samples. In the stepped workloads it runs on the generator's goroutine;
// in the asynchronous one on its own.
type collector struct {
	g       *gen
	rec     *recorder
	parent  int32 // span the rounds hang under
	pending []death

	steady     atomic.Bool // rounds count toward steady-phase samples
	roundNs    []float64
	traceStats traceStats
	reclaimR   []float64
	reclaimNs  []float64
}

// round traces every site once. Stepped: begin, commit, then deliver the
// site's messages (Cluster.Settle). Asynchronous: begin, commit, then the
// back-trace timeout scan; messages flow through the mailboxes meanwhile.
func (c *collector) round() {
	g := c.g
	steady := c.steady.Load()
	rec := c.rec
	if !steady {
		rec = nil
	}
	rs := rec.begin("round", c.parent)
	t0 := time.Now()
	for _, s := range g.sites {
		sp := rec.begin("site.begin_trace", rs)
		s.BeginLocalTrace()
		rec.end(sp)
		sp = rec.begin("site.commit_trace", rs)
		rep := s.CommitLocalTrace()
		rec.end(sp)
		g.traces.Add(1)
		if steady {
			c.traceStats.add(rep)
		}
		if g.async {
			sp = rec.begin("site.check_timeouts", rs)
			s.CheckTimeouts()
		} else {
			sp = rec.begin("cluster.settle", rs)
			g.c.Settle()
		}
		rec.end(sp)
	}
	t1 := time.Now()
	rec.end(rs)
	r1 := g.roundPos()
	if steady {
		c.roundNs = append(c.roundNs, float64(t1.Sub(t0)))
	}
	ck := rec.begin("bench.check", c.parent)
	c.check(r1, t1)
	rec.end(ck)
}

// check samples every pending death whose object is gone after round r1.
func (c *collector) check(r1 float64, t1 time.Time) {
	c.pending = c.g.deaths.take(c.pending)
	keep := c.pending[:0]
	for _, d := range c.pending {
		if c.g.site(d.ref.Site).ContainsObject(d.ref.Obj) {
			keep = append(keep, d)
			continue
		}
		c.reclaimR = append(c.reclaimR, r1-d.r0)
		c.reclaimNs = append(c.reclaimNs, float64(t1.Sub(d.t0)))
	}
	c.pending = keep
}

// drain runs rounds until every death the generator stamped is reclaimed.
// The generator has stopped, so nothing races the rounds and the network
// is settled before each one.
func (c *collector) drain() int {
	n := 0
	for ; n < maxDrainRounds; n++ {
		c.g.c.Settle()
		c.pending = c.g.deaths.take(c.pending)
		if len(c.pending) == 0 {
			break
		}
		c.round()
	}
	return n
}

// build creates a cluster and runs the workload's setup on it.
func build(w *workload, seed int64, traced bool, res *passResult) (*gen, plan) {
	codec, err := bt.CodecByName("binary")
	if err != nil {
		panic(err)
	}
	var observer bt.Observer
	if traced {
		res.codec = &timedCodec{inner: codec}
		res.sink = &sink{}
		codec, observer = res.codec, res.sink
	}
	c := bt.NewCluster(w.options(codec, observer))
	g := newGen(c, seed, w.async)
	d := w.newPlan(g)
	d.setup()
	c.Settle()
	return g, d
}

// runPass runs one complete pass of a workload.
func runPass(w *workload, seed int64, seconds float64, traced bool) (*passResult, error) {
	res := &passResult{}

	var g *gen
	var d plan
	var total time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || total < minSetupTime); i++ {
		if g != nil {
			g.c.Close()
		}
		res.codec, res.sink = nil, nil
		runtime.GC()
		t0 := time.Now()
		g, d = build(w, seed, traced, res)
		took := time.Since(t0)
		total += took
		res.setupS = append(res.setupS, took.Seconds())
		if g.firstErr != nil {
			g.c.Close()
			return nil, fmt.Errorf("setup: %w", g.firstErr)
		}
	}

	origin := time.Now()
	col := &collector{g: g, parent: -1}
	if traced {
		g.rec = newRecorder(origin)
	}
	g.runSpan = g.rec.begin("run", -1)
	if w.async {
		if traced {
			col.rec = newRecorder(origin)
		}
	} else {
		col.rec, col.parent = g.rec, g.runSpan
	}
	col.steady.Store(true)
	g.measuring = true
	if res.codec != nil {
		res.codec.take()
		res.sink.reset()
	}
	snap0, rt0 := g.c.Metrics(), readRuntime()
	start := time.Now()

	if w.async {
		runAsync(w, g, d, col, seconds)
	} else {
		rounds := int(seconds*w.roundsPerSec + 0.5)
		if rounds < 1 {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			d.mutate()
			col.round()
		}
	}

	res.steadyWall = time.Since(start)
	g.rec.end(g.runSpan)
	snap1, rt1 := g.c.Metrics(), readRuntime()
	if res.codec != nil {
		res.wire = res.codec.take()
	}
	g.measuring = false
	col.steady.Store(false)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapWithCluster := float64(ms.HeapAlloc)

	res.drainRound = col.drain()
	g.c.Settle()
	snap2 := g.c.Metrics()
	res.gate = checkGate(g, col)

	res.steady = regDiff{snap0, snap1}
	res.all = regDiff{snap0, snap2}
	res.rt = [2]runtimeStats{rt0, rt1}
	res.rounds = len(col.roundNs)
	res.roundNs = col.roundNs
	res.traceStats = col.traceStats
	res.reclaimRounds, res.reclaimNs = col.reclaimR, col.reclaimNs
	res.steps, res.failed, res.stepNs, res.maxLag = g.steps, g.failed, g.stepNs, g.maxLag
	res.rec = g.rec
	if col.rec != g.rec {
		res.crec = col.rec
	}
	if g.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: first mutator error: %v\n", g.firstErr)
	}

	// The sites' memory is what the heap loses when the cluster goes.
	g.c.Close()
	g.c, g.sites, col.g = nil, nil, nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.liveHeapBytes = heapWithCluster - float64(ms.HeapAlloc)
	return res, nil
}

// runAsync drives the open-loop workload: this goroutine offers mutation
// steps at the workload's rate while one collector goroutine starts a
// round every asyncRoundPeriod (back to back only when a round overruns).
// Cluster.RunRound is not used: its Settle waits for the network to go
// quiet, which never happens while the generator runs.
func runAsync(w *workload, g *gen, d plan, col *collector, seconds float64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := time.Now()
		for {
			select {
			case <-stop:
				return
			default:
				waitUntil(next)
				next = next.Add(asyncRoundPeriod)
				if now := time.Now(); next.Before(now) {
					next = now
				}
				col.round()
			}
		}
	}()
	g.interval = time.Duration(float64(time.Second) / w.stepsPerSec)
	g.next = time.Now()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		d.mutate()
	}
	close(stop)
	wg.Wait()
}

// gateResult is the correctness gate: no object may be missing while the
// model still has it live, and the program's heap must match the model
// once the drain is over.
type gateResult struct {
	unsafeSweeps int      // model-live objects missing, at death or at the end
	garbageLeft  int      // model-garbage objects still present
	liveMismatch int      // |model live - GlobalLive| disagreements
	violations   []string // InvariantViolations
}

func (r gateResult) ok() bool {
	return r.unsafeSweeps == 0 && r.garbageLeft == 0 && r.liveMismatch == 0 && len(r.violations) == 0
}

func checkGate(g *gen, col *collector) gateResult {
	r := gateResult{unsafeSweeps: g.unsafeSweeps}
	for _, d := range g.deaths.take(col.pending) {
		if g.site(d.ref.Site).ContainsObject(d.ref.Obj) {
			r.garbageLeft++
		}
	}
	live := g.c.GlobalLive()
	n := 0
	for _, l := range g.m.live {
		for _, id := range l {
			ref := g.m.objs[id].ref
			if !g.site(ref.Site).ContainsObject(ref.Obj) {
				r.unsafeSweeps++
			}
			if _, ok := live[ref]; ok {
				n++
			} else {
				r.liveMismatch++
			}
		}
	}
	r.liveMismatch += len(live) - n
	r.violations = g.c.InvariantViolations()
	return r
}
