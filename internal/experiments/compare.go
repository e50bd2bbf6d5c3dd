package experiments

import (
	"fmt"
	"time"

	"backtrace/internal/baseline"
	"backtrace/internal/cluster"
	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/refs"
	"backtrace/internal/tracer"
	"backtrace/internal/workload"
)

// --- C3: inset computation — Section 5.1 vs Section 5.2 ---------------------

// InsetRow records the cost of one outset computation.
type InsetRow struct {
	Shape    string
	Algo     tracer.OutsetAlgorithm
	NI       int   // suspected inrefs
	Objects  int   // suspected objects
	Visits   int64 // object scans during outset computation
	Retraced int64
	Unions   int64
	MemoHits int64
	Elapsed  time.Duration
}

// insetShape builds a single-site heap+table for the inset experiments.
type insetShape struct {
	name string
	h    *heap.Heap
	tbl  *refs.Table
	ni   int
	objs int
}

// buildInsetShapes constructs the shapes Section 5 discusses: a fan of
// suspected inrefs over one shared tail (worst case for independent
// tracing), a long chain with an inref per element (canonical outset
// sharing), and one big SCC (leader sharing).
func buildInsetShapes(scale int) []insetShape {
	var shapes []insetShape

	// fan: k inrefs, shared tail of length 10*k.
	{
		k, tail := scale, 10*scale
		h := heap.New(1)
		tbl := refs.NewTable(1, 1<<20)
		join := h.Alloc()
		for i := 0; i < k; i++ {
			head := h.Alloc()
			tbl.AddSource(head.Obj, 2)
			tbl.SetSourceDistance(head.Obj, 2, 100)
			h.AddField(head.Obj, join)
		}
		prev := join
		for i := 0; i < tail; i++ {
			next := h.Alloc()
			h.AddField(prev.Obj, next)
			prev = next
		}
		out := ids.MakeRef(2, 1)
		h.AddField(prev.Obj, out)
		tbl.EnsureOutref(out)
		if o, ok := tbl.Outref(out); ok {
			o.Distance = 100
			o.Barrier = false
		}
		shapes = append(shapes, insetShape{name: fmt.Sprintf("fan-%d", k), h: h, tbl: tbl, ni: k, objs: h.Len()})
	}

	// chain: every element has its own suspected inref.
	{
		n := 10 * scale
		h := heap.New(1)
		tbl := refs.NewTable(1, 1<<20)
		var prev ids.Ref
		for i := 0; i < n; i++ {
			cur := h.Alloc()
			tbl.AddSource(cur.Obj, 2)
			tbl.SetSourceDistance(cur.Obj, 2, 100)
			if i > 0 {
				h.AddField(prev.Obj, cur)
			}
			prev = cur
		}
		out := ids.MakeRef(2, 1)
		h.AddField(prev.Obj, out)
		tbl.EnsureOutref(out)
		if o, ok := tbl.Outref(out); ok {
			o.Distance = 100
			o.Barrier = false
		}
		shapes = append(shapes, insetShape{name: fmt.Sprintf("chain-%d", n), h: h, tbl: tbl, ni: n, objs: n})
	}

	// scc: one strongly connected component with inrefs on every node.
	{
		n := 10 * scale
		h := heap.New(1)
		tbl := refs.NewTable(1, 1<<20)
		nodes := make([]ids.Ref, n)
		for i := range nodes {
			nodes[i] = h.Alloc()
			tbl.AddSource(nodes[i].Obj, 2)
			tbl.SetSourceDistance(nodes[i].Obj, 2, 100)
		}
		for i := range nodes {
			h.AddField(nodes[i].Obj, nodes[(i+1)%n])
			if i%7 == 0 {
				h.AddField(nodes[i].Obj, nodes[(i+n/2)%n]) // chords
			}
		}
		out := ids.MakeRef(2, 1)
		h.AddField(nodes[n-1].Obj, out)
		tbl.EnsureOutref(out)
		if o, ok := tbl.Outref(out); ok {
			o.Distance = 100
			o.Barrier = false
		}
		shapes = append(shapes, insetShape{name: fmt.Sprintf("scc-%d", n), h: h, tbl: tbl, ni: n, objs: n})
	}
	return shapes
}

// InsetComparison runs both Section 5 algorithms over the shapes and
// reports their costs. Scale controls workload size.
func InsetComparison(scale int) []InsetRow {
	var rows []InsetRow
	for _, sh := range buildInsetShapes(scale) {
		for _, algo := range []tracer.OutsetAlgorithm{tracer.AlgoIndependent, tracer.AlgoBottomUp} {
			start := time.Now()
			res := tracer.RunParallel(sh.h, sh.tbl, 3, algo, 1)
			rows = append(rows, InsetRow{
				Shape:    sh.name,
				Algo:     algo,
				NI:       sh.ni,
				Objects:  sh.objs,
				Visits:   res.Stats.OutsetVisits,
				Retraced: res.Stats.OutsetRetraced,
				Unions:   res.Stats.Unions,
				MemoHits: res.Stats.MemoHits,
				Elapsed:  time.Since(start),
			})
		}
	}
	return rows
}

// InsetTable renders InsetComparison rows.
func InsetTable(rows []InsetRow) *Table {
	t := &Table{
		Title:   "C3: inset computation — Section 5.1 (independent) vs 5.2 (bottom-up)",
		Header:  []string{"shape", "algorithm", "ni", "objects", "visits", "retraced", "unions", "memo hits", "time"},
		Caption: "independent is O(ni*(n+e)); bottom-up scans each object once with memoized unions",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Shape, r.Algo.String(),
			fmt.Sprint(r.NI), fmt.Sprint(r.Objects),
			fmt.Sprint(r.Visits), fmt.Sprint(r.Retraced),
			fmt.Sprint(r.Unions), fmt.Sprint(r.MemoHits),
			r.Elapsed.Round(time.Microsecond).String(),
		})
	}
	return t
}

// --- C8: comparison against the related-work baselines ----------------------

// CompareRow is one collector's cost to reclaim the same garbage cycle.
type CompareRow struct {
	Collector     string
	Collected     int
	Rounds        int
	Messages      int64
	Bytes         int64
	SitesInvolved int
	// SteadyPerRound is the scheme's own message traffic per round once
	// no garbage remains — the standing cost of the algorithm. Back
	// tracing and migration idle at zero; Hughes keeps paying global
	// timestamp and threshold traffic forever.
	SteadyPerRound int64
}

// CompareCollectors reclaims the same workload — a garbage ring over
// cycleSites sites, decorated with a live chain extending to extra sites —
// with back tracing and each baseline, and reports the costs.
func CompareCollectors(cycleSites, extraSites int) ([]CompareRow, error) {
	spec := workload.Ring(cycleSites)
	spec.Sites = cycleSites + extraSites
	// Live chain: root on the first extra site, then one object per
	// remaining extra site; the cycle points into the chain's head.
	if extraSites > 0 {
		rootIdx := len(spec.Objects)
		spec.Objects = append(spec.Objects, workload.ObjSpec{Site: ids.SiteID(cycleSites + 1), Root: true})
		prev := rootIdx
		for i := 1; i < extraSites; i++ {
			idx := len(spec.Objects)
			spec.Objects = append(spec.Objects, workload.ObjSpec{Site: ids.SiteID(cycleSites + 1 + i)})
			spec.Edges = append(spec.Edges, [2]int{prev, idx})
			prev = idx
		}
		chainHead := rootIdx + 1
		if extraSites == 1 {
			chainHead = rootIdx
		}
		spec.Edges = append(spec.Edges, [2]int{0, chainHead})
	}

	var rows []CompareRow

	// Back tracing on the real cluster.
	{
		c := clusterFor(spec.Sites, true)
		if _, err := workload.Build(c, spec); err != nil {
			c.Close()
			return nil, err
		}
		garbage := c.GarbageCount()
		c.Counters().Reset()
		participants := make(map[ids.SiteID]struct{})
		rounds := 0
		for ; rounds < 60 && c.GarbageCount() > 0; rounds++ {
			c.RunRound()
			for _, s := range c.Sites() {
				for _, out := range s.Completions() {
					for _, p := range out.Participants {
						participants[p] = struct{}{}
					}
				}
			}
		}
		snap := c.Counters().Snapshot()
		// Steady state: five more rounds with no garbage left.
		c.RunRounds(5)
		after := c.Counters().Snapshot()
		rows = append(rows, CompareRow{
			Collector: "back-tracing",
			Collected: garbage - c.GarbageCount(),
			Rounds:    rounds,
			// All collector traffic during the run: reference-listing
			// updates, distance propagation, and back-trace messages.
			Messages:       snap["msg.total"],
			Bytes:          16 * snap["msg.total"],
			SitesInvolved:  len(participants),
			SteadyPerRound: (after["msg.total"] - snap["msg.total"]) / 5,
		})
		c.Close()
	}

	mk := func(name string, build func(w *baseline.World) baseline.Collector) error {
		w, _, err := baseline.FromSpec(spec)
		if err != nil {
			return err
		}
		col := build(w)
		w.ResetAccounting()
		st := baseline.Run(w, col, 60)
		st.Name = name
		steadyBase := w.Messages
		for i := 0; i < 5; i++ {
			col.Step()
		}
		rows = append(rows, CompareRow{
			Collector:      st.Name,
			Collected:      st.Collected,
			Rounds:         st.Rounds,
			Messages:       st.Messages,
			Bytes:          st.Bytes,
			SitesInvolved:  st.SitesInvolved,
			SteadyPerRound: (w.Messages - steadyBase) / 5,
		})
		return nil
	}
	if err := mk("migration", func(w *baseline.World) baseline.Collector { return baseline.NewMigration(w, 3) }); err != nil {
		return nil, err
	}
	if err := mk("hughes", func(w *baseline.World) baseline.Collector { return baseline.NewHughes(w) }); err != nil {
		return nil, err
	}
	if err := mk("group-trace", func(w *baseline.World) baseline.Collector { return baseline.NewGroupTrace(w, 3) }); err != nil {
		return nil, err
	}
	if err := mk("local-only", func(w *baseline.World) baseline.Collector { return baseline.NewLocalOnly(w) }); err != nil {
		return nil, err
	}
	if err := mk("local-wrc", func(w *baseline.World) baseline.Collector { return baseline.NewWeightedRC(w) }); err != nil {
		return nil, err
	}
	return rows, nil
}

// CompareTable renders CompareCollectors rows.
func CompareTable(cycleSites, extraSites int, rows []CompareRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("C8: collecting a %d-site cycle (+%d live decoration sites)", cycleSites, extraSites),
		Header: []string{
			"collector", "collected", "rounds", "messages", "bytes", "sites involved", "steady msgs/round",
		},
		Caption: "messages = all collector traffic until the cycle is gone; steady = standing per-round traffic afterwards; local-only (listing) and local-wrc (weighted RC) never collect the cycle",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Collector, fmt.Sprint(r.Collected), fmt.Sprint(r.Rounds),
			fmt.Sprint(r.Messages), fmt.Sprint(r.Bytes), fmt.Sprint(r.SitesInvolved),
			fmt.Sprint(r.SteadyPerRound),
		})
	}
	return t
}

// --- C7: locality under a crashed / slow site ------------------------------

// LocalityRow records whether a cycle disjoint from a failed site is
// collected while the site is down.
type LocalityRow struct {
	Collector          string
	DisjointCollected  bool
	DependentCollected bool
	RoundsRun          int
}

// LocalityUnderCrash builds two 2-site cycles on a 4-site system, disables
// site 4, runs rounds, and reports which cycles each collector reclaims:
// back tracing (and migration) collect the disjoint cycle; Hughes's global
// threshold stalls everything.
func LocalityUnderCrash(rounds int) ([]LocalityRow, error) {
	twoCycles := func() workload.Spec {
		spec := workload.Ring(2) // cycle A on sites 1-2
		spec.Sites = 4
		b3 := len(spec.Objects)
		spec.Objects = append(spec.Objects, workload.ObjSpec{Site: 3})
		b4 := len(spec.Objects)
		spec.Objects = append(spec.Objects, workload.ObjSpec{Site: 4})
		spec.Edges = append(spec.Edges, [2]int{b3, b4}, [2]int{b4, b3}) // cycle B on 3-4
		return spec
	}

	var rows []LocalityRow

	// Back tracing on the real cluster with site 4 crashed.
	{
		c := clusterFor(4, true)
		refsOut, err := workload.Build(c, twoCycles())
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Net().Crash(4)
		for r := 0; r < rounds; r++ {
			for _, id := range []ids.SiteID{1, 2, 3} {
				c.Site(id).RunLocalTrace()
				c.Settle()
			}
		}
		rows = append(rows, LocalityRow{
			Collector:          "back-tracing",
			DisjointCollected:  !c.Site(1).ContainsObject(refsOut[0].Obj) && !c.Site(2).ContainsObject(refsOut[1].Obj),
			DependentCollected: !c.Site(3).ContainsObject(refsOut[2].Obj),
			RoundsRun:          rounds,
		})
		c.Close()
	}

	// Hughes with site 4 slow forever (never traces within the window).
	{
		w, refsOut, err := baseline.FromSpec(twoCycles())
		if err != nil {
			return nil, err
		}
		h := baseline.NewHughes(w)
		h.SlowSite = 4
		h.SlowEvery = rounds * 10
		for r := 0; r < rounds; r++ {
			h.Step()
		}
		_, aAlive := w.Objects[refsOut[0]]
		_, bAlive := w.Objects[refsOut[2]]
		rows = append(rows, LocalityRow{
			Collector:          "hughes",
			DisjointCollected:  !aAlive,
			DependentCollected: !bAlive,
			RoundsRun:          rounds,
		})
	}

	// Migration with site 4 "down": model by running migration rounds on
	// a world whose site-4 objects cannot act; the cycle on 1-2 must
	// still converge and die. (The world model has no crash switch; we
	// simply note that migration of the disjoint cycle involves only
	// sites 1-2, so a site-4 failure cannot affect it.)
	{
		w, refsOut, err := baseline.FromSpec(workload.Ring(2))
		if err != nil {
			return nil, err
		}
		m := baseline.NewMigration(w, 3)
		st := baseline.Run(w, m, rounds)
		_, aAlive := w.Objects[refsOut[0]]
		rows = append(rows, LocalityRow{
			Collector:          "migration (cycle's sites only)",
			DisjointCollected:  !aAlive && st.Collected == 2,
			DependentCollected: false,
			RoundsRun:          st.Rounds,
		})
	}
	return rows, nil
}

// LocalityTable renders LocalityUnderCrash rows.
func LocalityTable(rows []LocalityRow) *Table {
	t := &Table{
		Title:   "C7: locality with site 4 failed (cycle A on sites 1-2, cycle B on 3-4)",
		Header:  []string{"collector", "cycle A collected", "cycle B collected", "rounds"},
		Caption: "back tracing collects the disjoint cycle; Hughes's global threshold stalls everything",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Collector, fmt.Sprint(r.DisjointCollected), fmt.Sprint(r.DependentCollected), fmt.Sprint(r.RoundsRun),
		})
	}
	return t
}

// --- end-to-end hypertext run (intro workload) ------------------------------

// HypertextRow summarizes an end-to-end hypertext collection.
type HypertextRow struct {
	Docs        int
	Objects     int
	Garbage     int
	Rounds      int
	Collected   int
	Traces      int64
	TraceLive   int64
	MsgTotal    int64
	MsgBacktr   int64
	ObjectsScan int64
}

// Hypertext runs the motivating workload end to end.
func Hypertext(docs, sites int, seed int64) (HypertextRow, error) {
	c := cluster.New(cluster.Options{
		NumSites:           sites,
		SuspicionThreshold: 4,
		BackThreshold:      10,
		ThresholdBump:      4,
		AutoBackTrace:      true,
	})
	defer c.Close()
	spec := workload.HypertextWeb(workload.HypertextConfig{
		Sites:       sites,
		Docs:        docs,
		PagesPerDoc: 6,
		CrossLinks:  docs,
		LiveFrac:    0.5,
		Seed:        seed,
	})
	refsOut, err := workload.Build(c, spec)
	if err != nil {
		return HypertextRow{}, err
	}
	garbage := c.GarbageCount()
	c.Counters().Reset()
	rounds, collected := c.CollectUntilStable(100)
	snap := c.Counters().Snapshot()
	return HypertextRow{
		Docs:        docs,
		Objects:     len(refsOut),
		Garbage:     garbage,
		Rounds:      rounds,
		Collected:   collected,
		Traces:      snap[metrics.BackTracesStarted],
		TraceLive:   snap[metrics.BackTracesLive],
		MsgTotal:    snap["msg.total"],
		MsgBacktr:   snap["msg.BackCall"] + snap["msg.BackReply"] + snap["msg.Report"],
		ObjectsScan: snap[metrics.ObjectsTraced],
	}, nil
}

// HypertextTable renders Hypertext rows.
func HypertextTable(rows []HypertextRow) *Table {
	t := &Table{
		Title:   "intro workload: hypertext webs (orphaned documents = distributed cycles)",
		Header:  []string{"docs", "objects", "garbage", "rounds", "collected", "traces", "live traces", "backtr msgs", "all msgs"},
		Caption: "back-trace traffic stays proportional to the garbage, not the web",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Docs), fmt.Sprint(r.Objects), fmt.Sprint(r.Garbage),
			fmt.Sprint(r.Rounds), fmt.Sprint(r.Collected),
			fmt.Sprint(r.Traces), fmt.Sprint(r.TraceLive),
			fmt.Sprint(r.MsgBacktr), fmt.Sprint(r.MsgTotal),
		})
	}
	return t
}
