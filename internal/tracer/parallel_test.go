package tracer

import (
	"fmt"
	"math/rand"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// mutateState applies one weighted random mutation to the heap/table pair,
// mirroring the legal site flows (the same mix the incremental equivalence
// test uses). With allowInvalidating false the op is remapped into the
// monotone range.
func mutateState(rng *rand.Rand, h *heap.Heap, tbl *refs.Table, objs *[]ids.Ref, threshold int, allowInvalidating bool) {
	op := rng.Intn(20)
	if !allowInvalidating && op >= 17 {
		op = rng.Intn(10)
	}
	switch op {
	case 0, 1, 2, 3:
		*objs = append(*objs, h.Alloc())
	case 4, 5, 6, 7, 8, 9:
		src := (*objs)[rng.Intn(len(*objs))]
		dst := (*objs)[rng.Intn(len(*objs))]
		_ = h.AddField(src.Obj, dst)
	case 10, 11:
		src := (*objs)[rng.Intn(len(*objs))]
		remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(30) + 1)}
		_ = h.AddField(src.Obj, remote)
		tbl.EnsureOutref(remote)
	case 12, 13:
		obj := (*objs)[rng.Intn(len(*objs))]
		tbl.AddSource(obj.Obj, 3)
		tbl.SetSourceDistance(obj.Obj, 3, rng.Intn(threshold+3))
	case 14:
		obj := (*objs)[rng.Intn(len(*objs))]
		if in, ok := tbl.Inref(obj.Obj); ok {
			if d := in.Distance(); d > 0 {
				tbl.SetSourceDistance(obj.Obj, 3, d-1)
			}
		}
	case 15:
		h.AddAppRoot((*objs)[rng.Intn(len(*objs))])
	case 16:
		remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(30) + 1)}
		h.AddAppRoot(remote)
		tbl.EnsureOutref(remote)
	case 17:
		src := (*objs)[rng.Intn(len(*objs))]
		o, ok := h.Get(src.Obj)
		if ok && o.NumFields() > 0 {
			_, _ = h.RemoveField(src.Obj, o.Field(rng.Intn(o.NumFields())))
		}
	case 18:
		obj := (*objs)[rng.Intn(len(*objs))]
		if rng.Intn(2) == 0 {
			tbl.RemoveSource(obj.Obj, 3)
		} else {
			tbl.FlagGarbage(obj.Obj)
		}
	case 19:
		h.RemoveAppRoot((*objs)[rng.Intn(len(*objs))])
	}
}

// TestParallelEquivalence is the bit-identical property for full traces:
// over seeded randomized states on varying shard counts, RunParallel must
// match the map oracle on every comparable result field, for every worker
// count in {1, 2, 4, 8} and both outset algorithms.
func TestParallelEquivalence(t *testing.T) {
	const (
		numSeeds  = 30
		rounds    = 6
		threshold = 2
	)
	for seed := int64(1); seed <= numSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			shards := []int{1, 2, 3, 8}[seed%4]
			algo := AlgoBottomUp
			if seed%5 == 0 {
				algo = AlgoIndependent
			}
			h := heap.NewSharded(1, shards)
			tbl := refs.NewTableSharded(1, threshold+2, shards)

			var objs []ids.Ref
			for i := 0; i < 4; i++ {
				objs = append(objs, h.AllocRoot())
			}
			for round := 0; round < rounds; round++ {
				for step := 0; step < 25; step++ {
					mutateState(rng, h, tbl, &objs, threshold, round%4 == 3)
				}
				want := runOracle(h, tbl, threshold, algo)
				for _, workers := range []int{1, 2, 4, 8} {
					got := RunParallel(h, tbl, threshold, algo, workers)
					sameResult(t, fmt.Sprintf("seed %d round %d shards %d workers %d algo %v",
						seed, round, shards, workers, algo), got, want)
					if !EqualResults(got, want) {
						t.Fatalf("seed %d round %d workers %d: EqualResults disagrees with field comparison",
							seed, round, workers)
					}
				}
				// Sweep as the site's commit would.
				for _, obj := range want.Dead {
					h.Delete(obj)
					tbl.RemoveInref(obj)
				}
			}
		})
	}
}

// TestParallelIncrementalEquivalence covers the parallel remark: an
// Incremental tracer with Workers > 1 (parallel full-trace fallbacks AND
// work-stealing dirty-seed remarks) must stay identical to a sequential
// full trace of the same state. Every fifth round is idle, which must take
// the memoized back-info reuse path (zero seeds relaxed, previous outsets
// carried over) and still compare equal.
func TestParallelIncrementalEquivalence(t *testing.T) {
	const (
		numSeeds  = 30
		rounds    = 10
		threshold = 2
	)
	for seed := int64(1); seed <= numSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			workers := []int{2, 4, 8}[seed%3]
			shards := []int{1, 2, 8}[seed%3]
			h := heap.NewSharded(1, shards)
			tbl := refs.NewTableSharded(1, threshold+2, shards)
			h.EnableDeltaTracking()
			tbl.EnableDeltaTracking()
			inc := &Incremental{MaxDirtyRatio: 1e9, Workers: workers}

			var objs []ids.Ref
			for i := 0; i < 4; i++ {
				objs = append(objs, h.AllocRoot())
			}
			remarks, reused := 0, 0
			for round := 0; round < rounds; round++ {
				idle := round > 0 && round%5 == 4
				if !idle {
					for step := 0; step < 15; step++ {
						mutateState(rng, h, tbl, &objs, threshold, round%4 == 3)
					}
				}
				want := runOracle(h.Snapshot(), tbl.Snapshot(), threshold, AlgoBottomUp)

				sh, hd := h.TraceSnapshot()
				stbl, td := tbl.TraceSnapshot()
				got := inc.Run(sh, stbl, hd, td, threshold, AlgoBottomUp)
				if got.Stats.Incremental {
					remarks++
				}
				if got.Stats.OutsetsReused {
					reused++
				}
				if idle && !got.Stats.OutsetsReused {
					t.Errorf("seed %d round %d: idle round did not reuse back info (incremental=%v reason=%q)",
						seed, round, got.Stats.Incremental, got.Stats.FallbackReason)
				}
				sameResult(t, fmt.Sprintf("seed %d round %d workers %d shards %d (incremental=%v reason=%q)",
					seed, round, workers, shards, got.Stats.Incremental, got.Stats.FallbackReason), got, want)

				for _, obj := range got.Dead {
					h.Delete(obj)
					tbl.RemoveInref(obj)
				}
			}
			if remarks == 0 {
				t.Errorf("seed %d: no round took the incremental path", seed)
			}
			if reused == 0 {
				t.Errorf("seed %d: no round reused the memoized back info", seed)
			}
		})
	}
}
