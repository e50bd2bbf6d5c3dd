package tracer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// trace runs the production full trace with one worker — the path every
// site without TraceWorkers takes — and fails the test unless it matches
// the map oracle and scanned each marked object exactly once.
func trace(t testing.TB, h *heap.Heap, tbl *refs.Table, threshold int, algo OutsetAlgorithm) *Result {
	t.Helper()
	res := RunParallel(h, tbl, threshold, algo, 1)
	if !EqualResults(res, runOracle(h, tbl, threshold, algo)) {
		t.Fatalf("one-worker dense trace diverges from the map oracle")
	}
	if got, want := res.Stats.ObjectsTraced, int64(res.Marked.Len()); got != want {
		t.Fatalf("one-worker trace scanned %d objects, marked %d: each must be scanned exactly once", got, want)
	}
	return res
}

// checkDense compares RunParallel at workers {1, 2, 8} against the map
// oracle for both outset algorithms: field by field against the oracle on
// the same shard count, and by content against the single-shard oracle.
// build must construct the same state at every shard count; it runs for
// shards {1, 4}.
func checkDense(t *testing.T, label string, threshold int, build func(shards int) (*heap.Heap, *refs.Table)) {
	t.Helper()
	for _, algo := range []OutsetAlgorithm{AlgoIndependent, AlgoBottomUp} {
		h1, t1 := build(1)
		flat := runOracle(h1, t1, threshold, algo)
		for _, shards := range []int{1, 4} {
			h, tbl := build(shards)
			want := runOracle(h, tbl, threshold, algo)
			for _, workers := range []int{1, 2, 8} {
				got := RunParallel(h, tbl, threshold, algo, workers)
				ctx := fmt.Sprintf("%s shards %d workers %d algo %v", label, shards, workers, algo)
				sameResult(t, ctx, got, want)
				if !EqualResults(got, want) || !EqualResults(got, flat) {
					t.Fatalf("%s: EqualResults disagrees with field comparison", ctx)
				}
				if workers == 1 && got.Stats.ObjectsTraced != int64(got.Marked.Len()) {
					t.Fatalf("%s: scanned %d objects, marked %d", ctx, got.Stats.ObjectsTraced, got.Marked.Len())
				}
			}
		}
	}
}

// TestDenseMatchesOracleOnRandomGraphs runs the dense path against the
// map oracle on the random graphs of the cross-algorithm property test.
func TestDenseMatchesOracleOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		seed := rng.Int63()
		nObjs := 1 + rng.Intn(40)
		nEdges, nInrefs, nRemote := rng.Intn(3*nObjs), rng.Intn(nObjs+1), rng.Intn(10)
		threshold := rng.Intn(6)
		checkDense(t, fmt.Sprintf("iter %d", iter), threshold, func(shards int) (*heap.Heap, *refs.Table) {
			return buildRandomSiteSharded(rand.New(rand.NewSource(seed)), shards, nObjs, nEdges, nInrefs, nRemote)
		})
	}
}

// TestDenseMatchesOracleWithPhantomMarks covers a heap whose id space is
// mostly holes: deleted objects still named by live fields and by inrefs,
// and an allocation high-water mark far above the live population. The
// dense table marks those ids (phantom marks); none may reach the result.
func TestDenseMatchesOracleWithPhantomMarks(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		build := func(shards int) (*heap.Heap, *refs.Table) {
			rng := rand.New(rand.NewSource(seed))
			h := heap.NewSharded(1, shards)
			tbl := refs.NewTableSharded(1, 100, shards)
			var all []ids.Ref
			for i := 0; i < 200; i++ {
				all = append(all, h.Alloc())
			}
			var live []ids.Ref
			for i, r := range all {
				if i%10 == 0 {
					live = append(live, r)
				}
			}
			_ = h.MarkPersistentRoot(live[0].Obj)
			// Fields to live objects and to ids about to be deleted.
			for i := 0; i < 60; i++ {
				from := live[rng.Intn(len(live))]
				_ = h.AddField(from.Obj, all[rng.Intn(len(all))])
			}
			for i := 0; i < 8; i++ {
				obj := all[rng.Intn(len(all))]
				tbl.AddSource(obj.Obj, 2)
				tbl.SetSourceDistance(obj.Obj, 2, rng.Intn(6))
			}
			for i, r := range all {
				if i%10 != 0 {
					h.Delete(r.Obj)
				}
			}
			h.SetNextID(ids.ObjID(100 * len(all)))
			return h, tbl
		}
		checkDense(t, fmt.Sprintf("seed %d", seed), 2, build)
	}
}

// TestDenseMatchesOracleWithRemoteAppRoots covers application roots that
// hold remote references: they seed outref distances at one hop, must win
// over longer paths through the heap, and show up as Missing when no
// outref backs them.
func TestDenseMatchesOracleWithRemoteAppRoots(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		build := func(shards int) (*heap.Heap, *refs.Table) {
			rng := rand.New(rand.NewSource(seed))
			h, tbl := buildRandomSiteSharded(rng, shards, 30, 60, 10, 12)
			for i := 0; i < 6; i++ {
				r := ids.MakeRef(ids.SiteID(2+rng.Intn(3)), ids.ObjID(1+rng.Intn(20)))
				h.AddAppRoot(r)
				if rng.Intn(3) > 0 {
					tbl.EnsureOutref(r)
				}
			}
			return h, tbl
		}
		checkDense(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)).Intn(5), build)
	}
}

// TestMarkerReuseAcrossTraces reuses one Marker across a mutating,
// sweeping sequence — the id range grows and ids are freed between traces
// — and across the epoch wraparound, and expects every trace to match the
// oracle as if its mark table were fresh.
func TestMarkerReuseAcrossTraces(t *testing.T) {
	const threshold = 2
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(workers)))
		h := heap.NewSharded(1, 3)
		tbl := refs.NewTableSharded(1, threshold+2, 3)
		var objs []ids.Ref
		for i := 0; i < 4; i++ {
			objs = append(objs, h.AllocRoot())
		}
		m := Marker{Workers: workers}
		for round := 0; round < 12; round++ {
			if round == 6 {
				m.epoch = 1<<32 - 2 // wraps within the next traces
			}
			for step := 0; step < 25; step++ {
				mutateState(rng, h, tbl, &objs, threshold, round%3 == 2)
			}
			want := runOracle(h, tbl, threshold, AlgoBottomUp)
			sameResult(t, fmt.Sprintf("workers %d round %d", workers, round), m.Run(h, tbl, threshold, AlgoBottomUp), want)
			for _, obj := range want.Dead {
				h.Delete(obj)
				tbl.RemoveInref(obj)
			}
		}
	}
}

// TestTraceReadsSnapshotWhileMutatorsRun is the race test for the
// copy-on-write snapshot: mutators rewrite the live heap while traces read
// a snapshot sharing its objects. Run under -race; the traces must also
// match the oracle on the snapshot afterwards, proving they saw a stable
// state.
func TestTraceReadsSnapshotWhileMutatorsRun(t *testing.T) {
	const threshold = 2
	rng := rand.New(rand.NewSource(5))
	h := heap.NewSharded(1, 4)
	tbl := refs.NewTableSharded(1, threshold+2, 4)
	var objs []ids.Ref
	for i := 0; i < 4; i++ {
		objs = append(objs, h.AllocRoot())
	}
	for step := 0; step < 400; step++ {
		mutateState(rng, h, tbl, &objs, threshold, true)
	}
	snap, stbl := h.Snapshot(), tbl.Snapshot()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
				switch rng.Intn(4) {
				case 0:
					_ = h.AddField(a.Obj, b)
				case 1:
					_, _ = h.RemoveField(a.Obj, b)
				case 2:
					_ = h.ClearFields(a.Obj)
				case 3:
					h.Delete(a.Obj)
				}
			}
		}(int64(g))
	}
	var results []*Result
	for _, workers := range []int{1, 2, 4} {
		for i := 0; i < 5; i++ {
			results = append(results, RunParallel(snap, stbl, threshold, AlgoBottomUp, workers))
		}
	}
	close(stop)
	wg.Wait()

	want := runOracle(snap, stbl, threshold, AlgoBottomUp)
	for i, res := range results {
		sameResult(t, fmt.Sprintf("trace %d", i), res, want)
	}
}
