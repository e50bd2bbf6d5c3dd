// Benchmarks regenerating the paper-reproduction experiment series (see
// DESIGN.md §3 and EXPERIMENTS.md). Each benchmark is the testing.B entry
// point for one experiment; cmd/dgcbench prints the corresponding tables.
//
// Run with:
//
//	go test -bench=. -benchmem
package backtrace_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"backtrace"
	"backtrace/internal/baseline"
	"backtrace/internal/cluster"
	"backtrace/internal/experiments"
	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/refs"
	"backtrace/internal/site"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
	"backtrace/internal/workload"
)

// benchCluster builds the standard experiment cluster.
func benchCluster(sites int, auto bool) *cluster.Cluster {
	return cluster.New(cluster.Options{
		NumSites:           sites,
		SuspicionThreshold: 3,
		BackThreshold:      7,
		ThresholdBump:      4,
		AutoBackTrace:      auto,
	})
}

// BenchmarkBackTraceMessages (experiment C1) measures one complete back
// trace over an n-site garbage ring: latency per trace and messages per
// trace (paper: 2E+P small messages).
func BenchmarkBackTraceMessages(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := benchCluster(n, false)
				c.BuildRing()
				c.RunRounds(10) // suspect everything
				before := c.Counters().Get("msg.total")
				var target backtrace.Ref
				for _, o := range c.Site(1).Outrefs() {
					if !o.Clean {
						target = o.Target
						break
					}
				}
				b.StartTimer()

				if _, ok := c.Site(1).StartBackTrace(target); !ok {
					b.Fatal("trace did not start")
				}
				c.Settle()

				b.StopTimer()
				msgs += c.Counters().Get("msg.total") - before
				c.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/trace")
			b.ReportMetric(float64(2*n+n-1), "paper-2E+P-1")
		})
	}
}

// BenchmarkCycleCollection (experiments F1/C2 end to end) measures the
// full pipeline on an n-site garbage ring: distance growth, threshold
// crossing, back trace, report phase, and reclamation.
func BenchmarkCycleCollection(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := benchCluster(n, true)
				c.BuildRing()
				b.StartTimer()

				if _, collected := c.CollectUntilStable(40); collected != n {
					b.Fatalf("collected %d, want %d", collected, n)
				}

				b.StopTimer()
				c.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkOutsets (experiment C3) compares the Section 5.1 and 5.2 inset
// computations on the shapes the paper discusses.
func BenchmarkOutsets(b *testing.B) {
	shapes := []struct {
		name  string
		build func() (*heap.Heap, *refs.Table)
	}{
		{"fan", func() (*heap.Heap, *refs.Table) { return buildFan(50, 500) }},
		{"chain", func() (*heap.Heap, *refs.Table) { return buildSuspectChain(500) }},
		{"scc", func() (*heap.Heap, *refs.Table) { return buildSuspectSCC(500) }},
	}
	for _, sh := range shapes {
		for _, algo := range []tracer.OutsetAlgorithm{tracer.AlgoIndependent, tracer.AlgoBottomUp} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, algo), func(b *testing.B) {
				h, tbl := sh.build()
				b.ResetTimer()
				var visits int64
				for i := 0; i < b.N; i++ {
					res := tracer.RunParallel(h, tbl, 3, algo, 1)
					visits += res.Stats.OutsetVisits
				}
				b.ReportMetric(float64(visits)/float64(b.N), "objvisits/op")
			})
		}
	}
}

func buildFan(k, tail int) (*heap.Heap, *refs.Table) {
	h := heap.New(1)
	tbl := refs.NewTable(1, 1<<20)
	join := h.Alloc()
	for i := 0; i < k; i++ {
		head := h.Alloc()
		tbl.AddSource(head.Obj, 2)
		tbl.SetSourceDistance(head.Obj, 2, 100)
		if err := h.AddField(head.Obj, join); err != nil {
			panic(err)
		}
	}
	prev := join
	for i := 0; i < tail; i++ {
		next := h.Alloc()
		if err := h.AddField(prev.Obj, next); err != nil {
			panic(err)
		}
		prev = next
	}
	addSuspectOutref(h, tbl, prev)
	return h, tbl
}

func buildSuspectChain(n int) (*heap.Heap, *refs.Table) {
	h := heap.New(1)
	tbl := refs.NewTable(1, 1<<20)
	var prev backtrace.Ref
	for i := 0; i < n; i++ {
		cur := h.Alloc()
		tbl.AddSource(cur.Obj, 2)
		tbl.SetSourceDistance(cur.Obj, 2, 100)
		if i > 0 {
			if err := h.AddField(prev.Obj, cur); err != nil {
				panic(err)
			}
		}
		prev = cur
	}
	addSuspectOutref(h, tbl, prev)
	return h, tbl
}

func buildSuspectSCC(n int) (*heap.Heap, *refs.Table) {
	h := heap.New(1)
	tbl := refs.NewTable(1, 1<<20)
	nodes := make([]backtrace.Ref, n)
	for i := range nodes {
		nodes[i] = h.Alloc()
		tbl.AddSource(nodes[i].Obj, 2)
		tbl.SetSourceDistance(nodes[i].Obj, 2, 100)
	}
	for i := range nodes {
		if err := h.AddField(nodes[i].Obj, nodes[(i+1)%n]); err != nil {
			panic(err)
		}
		if i%7 == 0 {
			if err := h.AddField(nodes[i].Obj, nodes[(i+n/2)%n]); err != nil {
				panic(err)
			}
		}
	}
	addSuspectOutref(h, tbl, nodes[n-1])
	return h, tbl
}

func addSuspectOutref(h *heap.Heap, tbl *refs.Table, from backtrace.Ref) {
	out := backtrace.MakeRef(2, 1)
	if err := h.AddField(from.Obj, out); err != nil {
		panic(err)
	}
	tbl.EnsureOutref(out)
	if o, ok := tbl.Outref(out); ok {
		o.Distance = 100
		o.Barrier = false
	}
}

// BenchmarkLocalTrace measures the forward mark + outset computation on
// random clustered graphs of growing size (the per-round cost every scheme
// pays).
func BenchmarkLocalTrace(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("objs-%d", n), func(b *testing.B) {
			h := heap.New(1)
			tbl := refs.NewTable(1, 1<<20)
			refsArr := make([]backtrace.Ref, n)
			for i := range refsArr {
				refsArr[i] = h.Alloc()
			}
			if err := h.MarkPersistentRoot(refsArr[0].Obj); err != nil {
				b.Fatal(err)
			}
			for i := 1; i < n; i++ {
				if err := h.AddField(refsArr[i/2].Obj, refsArr[i]); err != nil {
					b.Fatal(err)
				}
			}
			// Ten suspected inrefs over subtrees plus remote edges.
			for i := 0; i < 10; i++ {
				tbl.AddSource(refsArr[n/2+i].Obj, 2)
				tbl.SetSourceDistance(refsArr[n/2+i].Obj, 2, 100)
				addSuspectOutref(h, tbl, refsArr[n-1-i])
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := tracer.RunParallel(h, tbl, 3, tracer.AlgoBottomUp, 1)
				if len(res.Dead) != 0 {
					b.Fatal("unexpected garbage")
				}
			}
			b.ReportMetric(float64(n), "objects")
		})
	}
}

// BenchmarkCollectors (experiment C8) times each collector reclaiming the
// same n-site garbage cycle.
func BenchmarkCollectors(b *testing.B) {
	const n = 4
	b.Run("back-tracing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := benchCluster(n, true)
			c.BuildRing()
			b.StartTimer()
			c.CollectUntilStable(40)
			b.StopTimer()
			c.Close()
			b.StartTimer()
		}
	})
	mk := map[string]func(w *baseline.World) baseline.Collector{
		"migration":   func(w *baseline.World) baseline.Collector { return baseline.NewMigration(w, 3) },
		"hughes":      func(w *baseline.World) baseline.Collector { return baseline.NewHughes(w) },
		"group-trace": func(w *baseline.World) baseline.Collector { return baseline.NewGroupTrace(w, 3) },
	}
	for _, name := range []string{"migration", "hughes", "group-trace"} {
		build := mk[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, _, err := baseline.FromSpec(workload.Ring(n))
				if err != nil {
					b.Fatal(err)
				}
				col := build(w)
				b.StartTimer()
				baseline.Run(w, col, 60)
			}
		})
	}
}

// BenchmarkHypertext (intro workload) measures the end-to-end collection
// of orphaned hypertext documents.
func BenchmarkHypertext(b *testing.B) {
	for _, docs := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("docs-%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := experiments.Hypertext(docs, 6, 42)
				if err != nil {
					b.Fatal(err)
				}
				if row.Garbage != row.Collected {
					b.Fatalf("collected %d of %d", row.Collected, row.Garbage)
				}
			}
		})
	}
}

// BenchmarkPiggybackAblation measures the §4.6 piggybacking option:
// end-to-end cycle collection with and without message batching, with the
// envelope count as the reported metric.
func BenchmarkPiggybackAblation(b *testing.B) {
	for _, pb := range []bool{false, true} {
		name := "plain"
		if pb {
			name = "piggyback"
		}
		b.Run(name, func(b *testing.B) {
			var envelopes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := cluster.New(cluster.Options{
					NumSites:           4,
					SuspicionThreshold: 3,
					BackThreshold:      7,
					ThresholdBump:      4,
					AutoBackTrace:      true,
					Piggyback:          pb,
				})
				c.BuildRing()
				c.BuildRing()
				c.Counters().Reset()
				b.StartTimer()
				c.CollectUntilStable(40)
				b.StopTimer()
				envelopes += c.Counters().Get("msg.total")
				c.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(envelopes)/float64(b.N), "envelopes/op")
		})
	}
}

// BenchmarkAdaptiveThresholdAblation measures the §3 adaptive-threshold
// option on a workload with live far suspects: the adaptive variant stops
// wasting traces on them.
func BenchmarkAdaptiveThresholdAblation(b *testing.B) {
	build := func(adaptive bool) *cluster.Cluster {
		c := cluster.New(cluster.Options{
			NumSites:           4,
			SuspicionThreshold: 1, // aggressive: live suspects everywhere
			BackThreshold:      2,
			ThresholdBump:      1, // thresholds rise slowly: retries happen
			AutoBackTrace:      true,
			AdaptiveThreshold:  adaptive,
		})
		// Several live chains winding through all sites (far suspects)
		// plus one garbage ring.
		spec := workload.Chain(4, true)
		for ext := 0; ext < 3; ext++ {
			base := len(spec.Objects)
			from := base - 1
			if ext == 0 {
				from = 3 // tail of the original chain, not the root
			}
			for i := 0; i < 4; i++ {
				spec.Objects = append(spec.Objects, workload.ObjSpec{Site: backtrace.SiteID(i + 1)})
			}
			spec.Edges = append(spec.Edges, [2]int{from, base})
			for i := 0; i+1 < 4; i++ {
				spec.Edges = append(spec.Edges, [2]int{base + i, base + i + 1})
			}
		}
		if _, err := workload.Build(c, spec); err != nil {
			b.Fatal(err)
		}
		c.BuildRing()
		return c
	}
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var liveTraces int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := build(adaptive)
				b.StartTimer()
				c.RunRounds(20)
				b.StopTimer()
				liveTraces += c.Counters().Get("backtrace.outcome.live")
				c.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(liveTraces)/float64(b.N), "live-traces/op")
		})
	}
}

// BenchmarkOutsetAlgorithmEndToEnd runs the full hypertext collection with
// each §5 algorithm, measuring the end-to-end difference the inset
// computation makes.
func BenchmarkOutsetAlgorithmEndToEnd(b *testing.B) {
	for _, algo := range []tracer.OutsetAlgorithm{tracer.AlgoIndependent, tracer.AlgoBottomUp} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := cluster.New(cluster.Options{
					NumSites:           6,
					SuspicionThreshold: 4,
					BackThreshold:      10,
					ThresholdBump:      4,
					AutoBackTrace:      true,
					OutsetAlgorithm:    algo,
				})
				if _, err := workload.Build(c, workload.HypertextWeb(workload.HypertextConfig{
					Sites: 6, Docs: 12, PagesPerDoc: 6, CrossLinks: 12, LiveFrac: 0.5, Seed: 42,
				})); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.CollectUntilStable(60)
				b.StopTimer()
				c.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDistancePropagation (experiment C2) measures one collection
// round on rings of growing size — the cost of the distance heuristic's
// propagation machinery.
func BenchmarkDistancePropagation(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("sites-%d", n), func(b *testing.B) {
			c := cluster.New(cluster.Options{
				NumSites:           n,
				SuspicionThreshold: 3,
				BackThreshold:      1 << 20,
			})
			defer c.Close()
			c.BuildRing()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.RunRound()
			}
		})
	}
}

// BenchmarkParallelSites (experiment C12) measures one churn+collect round
// on a 4-site cluster under the serial round driver (churn and traces one
// site after another) and the pipelined one (goroutine per site). Same
// heaps, same churn, same network, off-lock traces in both — the ratio of
// the two ns/op figures is the multi-core speedup of running sites in
// parallel.
func BenchmarkParallelSites(b *testing.B) {
	const (
		numSites     = 4
		liveObjs     = 20000 // per-site live chain the trace must mark
		churnPerSite = 500   // objects allocated and orphaned per round
	)
	for _, pipelined := range []bool{false, true} {
		name := "serial"
		if pipelined {
			name = "pipelined-parallel"
		}
		b.Run(name, func(b *testing.B) {
			c := cluster.New(cluster.Options{
				NumSites:           numSites,
				Async:              true,
				Parallel:           pipelined,
				SuspicionThreshold: 3,
				BackThreshold:      1 << 20, // no back traces: isolate trace+churn cost
			})
			defer c.Close()

			roots := make([]backtrace.Ref, numSites)
			for i := 0; i < numSites; i++ {
				s := c.Site(backtrace.SiteID(i + 1))
				roots[i] = s.NewRootObject()
				prev := roots[i]
				for j := 0; j < liveObjs; j++ {
					o := s.NewObject()
					if err := s.AddReference(prev.Obj, o); err != nil {
						b.Fatal(err)
					}
					prev = o
				}
			}
			// A live cross-site ring among the roots keeps update traffic
			// flowing through the network each round.
			for i := range roots {
				c.MustLink(roots[i], roots[(i+1)%numSites])
			}

			churn := func(s *site.Site, root backtrace.Ref) {
				for j := 0; j < churnPerSite; j++ {
					o := s.NewObject()
					if err := s.AddReference(root.Obj, o); err != nil {
						panic(err)
					}
					if err := s.RemoveReference(root.Obj, o); err != nil {
						panic(err)
					}
				}
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pipelined {
					var wg sync.WaitGroup
					for j := 0; j < numSites; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							churn(c.Site(backtrace.SiteID(j+1)), roots[j])
						}(j)
					}
					wg.Wait()
				} else {
					for j := 0; j < numSites; j++ {
						churn(c.Site(backtrace.SiteID(j+1)), roots[j])
					}
				}
				c.RunRound()
			}
			b.StopTimer()
			b.ReportMetric(float64(numSites*churnPerSite), "churn-objs/op")
		})
	}
}

// BenchmarkOffLockTrace measures mutator latency on a site whose collector
// is continuously tracing a large heap. With the off-lock snapshot design
// the mutator only waits for the short snapshot and commit critical
// sections, never for the trace computation. The headline metric is
// stalled-pct — the share of mutator wall time spent in operations that
// blocked for at least a millisecond (critical sections plus scheduler
// noise). max-stall-ms is the worst single operation; trace-ms reports the
// mean trace computation wall time, which stays off the mutator's critical
// path.
func BenchmarkOffLockTrace(b *testing.B) {
	const liveObjs = 20000
	b.Run("offlock", func(b *testing.B) {
		net := transport.NewNet(transport.Options{})
		defer net.Close()
		s := site.New(site.Config{
			ID:                 1,
			Network:            net,
			SuspicionThreshold: 3,
			BackThreshold:      1 << 20,
		})
		defer s.Close()
		root := s.NewRootObject()
		prev := root
		for j := 0; j < liveObjs; j++ {
			o := s.NewObject()
			if err := s.AddReference(prev.Obj, o); err != nil {
				b.Fatal(err)
			}
			prev = o
		}
		// The mutator toggles an extra edge to an always-live object;
		// allocation is kept out of the op because an object is only
		// safe from the sweep once it is linked or held.
		target, err := s.Fields(root.Obj)
		if err != nil || len(target) == 0 {
			b.Fatal("root has no fields")
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var traces, traceNanos int64
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := s.RunLocalTrace()
				atomic.AddInt64(&traces, 1)
				atomic.AddInt64(&traceNanos, int64(rep.Stats.Duration))
			}
		}()

		var maxStall, stalled, elapsed time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opStart := time.Now()
			if err := s.AddReference(root.Obj, target[0]); err != nil {
				b.Fatal(err)
			}
			if err := s.RemoveReference(root.Obj, target[0]); err != nil {
				b.Fatal(err)
			}
			d := time.Since(opStart)
			elapsed += d
			if d > maxStall {
				maxStall = d
			}
			if d >= time.Millisecond {
				stalled += d
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		if elapsed > 0 {
			b.ReportMetric(float64(stalled)/float64(elapsed)*100, "stalled-pct")
		}
		b.ReportMetric(float64(maxStall)/1e6, "max-stall-ms")
		if n := atomic.LoadInt64(&traces); n > 0 {
			b.ReportMetric(float64(traceNanos)/float64(n)/1e6, "trace-ms")
		}
	})
}

// BenchmarkIncrementalTrace (experiment C15) measures the steady-state cost
// of one local trace round on a 20k-object heap of which ≤1% mutates per
// round (monotone edge adds on a rotating window of 200 objects): the
// full-snapshot path clones the shard maps and re-marks all 20k objects every round,
// the incremental path patches the shadow snapshot and remarks only from the
// 200 dirty seeds.
func BenchmarkIncrementalTrace(b *testing.B) {
	const (
		liveObjs        = 20000
		mutatedPerRound = 200 // 1% of the heap
	)
	for _, incremental := range []bool{false, true} {
		name := "full"
		if incremental {
			name = "incremental"
		}
		b.Run(name, func(b *testing.B) {
			net := transport.NewNet(transport.Options{})
			defer net.Close()
			s := site.New(site.Config{
				ID:                 1,
				Network:            net,
				SuspicionThreshold: 3,
				BackThreshold:      1 << 20,
				Incremental:        incremental,
			})
			defer s.Close()
			root := s.NewRootObject()
			objs := make([]ids.Ref, 0, liveObjs)
			prev := root
			for j := 0; j < liveObjs; j++ {
				o := s.NewObject()
				if err := s.AddReference(prev.Obj, o); err != nil {
					b.Fatal(err)
				}
				prev = o
				objs = append(objs, o)
			}
			target := objs[0] // fixed live target for the monotone adds
			s.RunLocalTrace() // first trace is full in both modes

			b.ReportAllocs()
			b.ResetTimer()
			idx := 0
			for i := 0; i < b.N; i++ {
				for k := 0; k < mutatedPerRound; k++ {
					if err := s.AddReference(objs[idx%len(objs)].Obj, target); err != nil {
						b.Fatal(err)
					}
					idx++
				}
				s.RunLocalTrace()
			}
			b.StopTimer()
			if incremental {
				// The steady-state rounds must actually have taken the remark
				// path; a silent fallback would invalidate the comparison.
				snap := s.Counters().Snapshot()
				if snap["localtrace.incremental.remarks"] < int64(b.N) {
					b.Fatalf("only %d/%d rounds remarked (fallbacks: %d)",
						snap["localtrace.incremental.remarks"], b.N,
						snap["localtrace.incremental.fallbacks"])
				}
			}
		})
	}
}

// BenchmarkParallelTrace (experiment C16) measures the work-stealing
// parallel mark against the one-worker inline mark on a million-object
// sharded heap: a wide 8-ary live tree (parallelism for the mark to
// harvest), a garbage tail (the dead sweep runs), suspected inrefs and
// outrefs (the outset and distance phases run). The parallel results are
// checked content-identical to the one-worker ones before timing starts. The
// speedup at 8 workers is the headline number recorded in BENCH_PR7.json;
// it requires ≥8 hardware threads to show its full effect.
func BenchmarkParallelTrace(b *testing.B) {
	const objects = 1 << 20
	h := heap.NewSharded(1, 8)
	tbl := refs.NewTableSharded(1, 1<<20, 8)
	live := objects * 9 / 10
	objs := make([]backtrace.Ref, 0, live)
	objs = append(objs, h.AllocRoot())
	for len(objs) < live {
		o := h.Alloc()
		if err := h.AddField(objs[(len(objs)-1)/8].Obj, o); err != nil {
			b.Fatal(err)
		}
		objs = append(objs, o)
	}
	var prev backtrace.Ref
	for i := live; i < objects; i++ {
		o := h.Alloc()
		if !prev.IsZero() {
			if err := h.AddField(prev.Obj, o); err != nil {
				b.Fatal(err)
			}
		}
		prev = o
	}
	for i := 0; i < 10; i++ {
		tbl.AddSource(objs[live/10+i].Obj, 2)
		tbl.SetSourceDistance(objs[live/10+i].Obj, 2, 100)
		addSuspectOutref(h, tbl, objs[live-1-i])
	}

	baseline := tracer.RunParallel(h, tbl, 3, tracer.AlgoBottomUp, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers-%d", workers)
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			if workers > 1 {
				if !tracer.EqualResults(tracer.RunParallel(h, tbl, 3, tracer.AlgoBottomUp, workers), baseline) {
					b.Fatal("parallel result diverges from sequential")
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := tracer.RunParallel(h, tbl, 3, tracer.AlgoBottomUp, workers)
				if len(res.Dead) != objects-live {
					b.Fatalf("dead %d, want %d", len(res.Dead), objects-live)
				}
			}
			b.ReportMetric(float64(objects), "objects")
		})
	}
}

// BenchmarkReliableLinkOverhead (experiment C11) measures what the
// ack/retransmit session layer costs on a loss-free in-memory link: the
// same message stream sent bare over the memnet versus wrapped in
// transport.Reliable (sequence numbering, windowing, acks, dedup state).
func BenchmarkReliableLinkOverhead(b *testing.B) {
	payload := func(i int) msg.Message {
		return msg.Report{Trace: ids.TraceID{Initiator: 1, Seq: uint64(i)}}
	}
	sink := transport.HandlerFunc(func(ids.SiteID, msg.Message) {})

	b.Run("bare", func(b *testing.B) {
		inner := transport.NewNet(transport.Options{})
		defer inner.Close()
		inner.Register(1, sink) // acks/replies need a registered sender site
		inner.Register(2, sink)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inner.Send(1, 2, payload(i))
		}
		if err := inner.Quiesce(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	})

	b.Run("reliable", func(b *testing.B) {
		inner := transport.NewNet(transport.Options{})
		rel := transport.NewReliable(inner, transport.ReliableOptions{})
		defer rel.Close()
		rel.Register(1, sink) // the session's acks route back to site 1
		rel.Register(2, sink)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel.Send(1, 2, payload(i))
		}
		if err := rel.AwaitIdle(60 * time.Second); err != nil {
			b.Fatal(err)
		}
		if err := inner.Quiesce(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	})
}
