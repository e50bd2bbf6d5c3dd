package site

import (
	"slices"
	"sort"
	"time"

	"backtrace/internal/event"
	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/refs"
	"backtrace/internal/tracer"
)

// This file orchestrates the collector phases at one site: the two-phase
// local trace (computation, then commit — the Section 6.2 double buffering
// of back information), the update-message protocol that trims source
// lists and propagates distances (Sections 2–3), and the policy for
// triggering back traces (Section 4.3).

// TraceReport summarizes one committed local trace.
type TraceReport struct {
	// Collected is the number of objects swept.
	Collected int
	// OutrefsTrimmed is the number of outrefs dropped.
	OutrefsTrimmed int
	// UpdatesSent is the number of update messages sent to target sites;
	// updates skipped as exact repeats are not counted.
	UpdatesSent int
	// BackTracesStarted is the number of back traces triggered after the
	// commit (only with AutoBackTrace).
	BackTracesStarted int
	// Stats carries the tracer's cost counters.
	Stats tracer.Stats
}

// updateRefresh is the number of commits after which an update that
// repeats the last one sent to a peer is sent again anyway. It bounds how
// long a lost update, a partition or a peer restored from an older
// checkpoint can leave the peer's source lists and distances stale.
const updateRefresh = 8

// peerUpdates is a site's post-trace update state for one peer site.
type peerUpdates struct {
	// last holds the Holds and Distances of the last update sent.
	last msg.Update
	// since counts the commits since last was sent.
	since int
	// farewell counts down the empty updates still owed once no outrefs to
	// the peer remain, so a lost removal heals; the record is dropped when
	// it reaches zero.
	farewell int
}

// repeats reports whether update u may be skipped: it trims nothing, is not
// a farewell, equals the last update sent, and that send is fewer than
// updateRefresh commits old.
func (p *peerUpdates) repeats(u *msg.Update) bool {
	return len(u.Removals) == 0 && len(u.Holds) > 0 && p.since < updateRefresh &&
		slices.Equal(u.Holds, p.last.Holds) && slices.Equal(u.Distances, p.last.Distances)
}

// RunLocalTrace computes and immediately commits a local trace. Most
// callers use this; tests exercising Section 6.2 interleavings call
// BeginLocalTrace and CommitLocalTrace separately.
func (s *Site) RunLocalTrace() TraceReport {
	s.BeginLocalTrace()
	return s.CommitLocalTrace()
}

// BeginLocalTrace computes a local trace — the forward mark, new outref
// distances, and the new copy of the back information — without installing
// any of it. Back traces arriving before the commit keep using the old
// copy; transfer barriers applied before the commit are recorded and
// replayed onto the new copy (Section 6.2).
//
// The computation itself runs OUTSIDE the site lock, on a snapshot of the
// heap and ioref tables taken under a short critical section. This is
// exactly what Section 6.2's double buffering buys: the live state may
// keep changing during the computation, because back traces still use the
// old back information, garbage stays garbage (no root or message can name
// an unreachable object), and barriers that fire meanwhile are recorded
// (s.tracing) and replayed at commit.
func (s *Site) BeginLocalTrace() {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.localTraceT0 = s.clk.Now()

	s.mu.Lock()
	// Full-trace sites take a copy-on-write snapshot: one map clone per
	// shard, sharing the immutable heap objects. Incremental sites patch
	// the retained shadow copy with the dirty set — O(changes), not
	// O(heap). Either copy has its own maps, so the off-lock read below
	// stays safe; traceMu guarantees the previous trace is done with the
	// shadow copy.
	var h *heap.Heap
	var tbl *refs.Table
	var hd *heap.Delta
	var td *refs.Delta
	if s.cfg.Incremental {
		s.gaugeDirty.Set(int64(100 * s.heap.MaxShardDirtyRatio()))
		h, hd = s.heap.TraceSnapshot()
		tbl, td = s.table.TraceSnapshot()
	} else {
		h = s.heap.Snapshot()
		tbl = s.table.Snapshot()
	}
	threshold := s.threshold
	epoch := s.traceEpoch
	s.startTraceLocked()
	s.mu.Unlock()

	var res *tracer.Result
	if s.cfg.Incremental {
		res = s.incr.Run(h, tbl, hd, td, threshold, s.cfg.OutsetAlgorithm)
	} else {
		res = s.full.Run(h, tbl, threshold, s.cfg.OutsetAlgorithm)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.traceEpoch != epoch || !s.tracing {
		// The state this result was computed from was replaced wholesale
		// (e.g. a checkpoint restore) while we traced: drop the result
		// rather than install conclusions about a heap that no longer
		// exists. traceMu makes this unreachable for ordinary
		// Begin/Commit interleavings.
		if s.cfg.Incremental {
			// The snapshot consumed the dirty sets but its result was
			// dropped: forget both lineages so the next trace starts full.
			s.incr.Reset()
			s.heap.ResetTraceSnapshot()
			s.table.ResetTraceSnapshot()
		}
		return
	}
	s.installPendingLocked(res)
}

// startTraceLocked opens the trace window: barriers applied from here to
// the commit are recorded for replay onto the new back information.
func (s *Site) startTraceLocked() {
	s.tracing = true
	s.pending = nil
	s.pendingBarrierInrefs = nil
	s.pendingBarrierOutrefs = nil
}

// installPendingLocked stages a computed trace result for commit and
// records its cost.
func (s *Site) installPendingLocked(res *tracer.Result) {
	s.pending = res
	s.cfg.Counters.Inc(metrics.LocalTraces)
	s.cfg.Counters.Add(metrics.ObjectsTraced, res.Stats.ObjectsTraced)
	s.cfg.Counters.Add(metrics.ObjectsRetraced, res.Stats.OutsetRetraced)
	s.cfg.Counters.Add(metrics.OutsetUnions, res.Stats.Unions)
	s.cfg.Counters.Add(metrics.OutsetUnionsMemoHit, res.Stats.MemoHits)
	if res.Stats.Steals > 0 {
		s.cfg.Counters.Add(metrics.ParallelSteals, res.Stats.Steals)
	}
	if s.cfg.Incremental {
		if res.Stats.Incremental {
			s.cfg.Counters.Inc(metrics.IncrementalRemarks)
			s.cfg.Counters.Add(metrics.IncrementalDirtySeeds, int64(res.Stats.DirtySeeds))
			if res.Stats.OutsetsReused {
				s.cfg.Counters.Inc(metrics.IncrementalOutsetsReused)
			}
		} else {
			s.cfg.Counters.Inc(metrics.IncrementalFallbacks)
		}
	}
}

// CommitLocalTrace atomically installs the most recent BeginLocalTrace:
// sweeps garbage, trims outrefs, applies new distances, replaces the back
// information, resets expired barrier marks, replays barriers that arrived
// during the trace, sends update messages, and (optionally) triggers back
// traces.
func (s *Site) CommitLocalTrace() TraceReport {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t0 := s.localTraceT0
	s.localTraceT0 = time.Time{}
	s.mu.Lock()
	res := s.pending
	s.pending = nil
	s.tracing = false
	s.traceEpoch++
	if res == nil {
		s.mu.Unlock()
		return TraceReport{}
	}
	var rep TraceReport
	rep.Stats = res.Stats

	// 1. Sweep objects that were unreachable at computation time. (They
	// cannot have become reachable since: no root or message can name an
	// unreachable object.)
	for _, obj := range res.Dead {
		if s.heap.Contains(obj) {
			s.heap.Delete(obj)
			rep.Collected++
		}
	}
	s.cfg.Counters.Add(metrics.ObjectsCollected, int64(rep.Collected))

	// 2. New outref distances. Transitions to clean fire the clean rule.
	// Sorted iteration keeps the clean-rule notifications (which can send
	// messages) in a deterministic order — a requirement of the replayable
	// simulation harness.
	distTargets := make([]ids.Ref, 0, len(res.OutrefDist))
	for target := range res.OutrefDist {
		distTargets = append(distTargets, target)
	}
	sort.Slice(distTargets, func(i, j int) bool { return distTargets[i].Less(distTargets[j]) })
	for _, target := range distTargets {
		dist := res.OutrefDist[target]
		o, ok := s.table.Outref(target)
		if !ok {
			continue
		}
		wasClean := o.IsClean(s.threshold)
		o.Distance = dist
		if !wasClean && o.IsClean(s.threshold) {
			s.engine.NotifyCleanedOutref(target)
		}
	}

	// 3. Trim untraced outrefs — except those retained by the insert
	// barrier (pins), barrier-cleaned by a transfer that happened AFTER
	// this trace was computed (pre-computation barriers are superseded:
	// "outrefs cleaned by the transfer barrier remain clean until the
	// site does the next local trace"), or held in a mutator variable
	// that appeared after the computation.
	postBarrier := make(map[ids.Ref]struct{}, len(s.pendingBarrierOutrefs))
	for _, target := range s.pendingBarrierOutrefs {
		postBarrier[target] = struct{}{}
	}
	removals := make(map[ids.SiteID][]ids.ObjID)
	for _, target := range res.Untraced {
		o, ok := s.table.Outref(target)
		if !ok {
			continue
		}
		if _, barred := postBarrier[target]; barred || o.Pins > 0 || s.heap.HoldsAppRoot(target) {
			continue
		}
		s.table.RemoveOutref(target)
		removals[target.Site] = append(removals[target.Site], target.Obj)
		rep.OutrefsTrimmed++
	}

	// 4. Install the new back information (the Section 6.2 atomic swap),
	// reset the transfer-barrier marks that the new information
	// supersedes, and replay barriers that arrived during the trace on
	// the new copy. The commit also advances the engine's memoization
	// generation: cached Live verdicts were proven against the old
	// distances and back information, so they expire here (tentpole
	// layer 2's invalidation point).
	s.back = res.Back
	s.engine.BumpGeneration()
	s.table.ResetBarriers()
	for _, obj := range s.pendingBarrierInrefs {
		if in, ok := s.table.Inref(obj); ok && !in.Garbage {
			in.Barrier = true
			for _, target := range s.back.Outset(obj) {
				if o, ok := s.table.Outref(target); ok {
					o.Barrier = true
				}
			}
		}
	}
	for _, target := range s.pendingBarrierOutrefs {
		if o, ok := s.table.Outref(target); ok {
			o.Barrier = true
		}
	}
	s.pendingBarrierInrefs = nil
	s.pendingBarrierOutrefs = nil

	entries := int64(s.back.Entries())
	s.cfg.Counters.Add(metrics.BackInfoEntries, entries)
	s.cfg.Counters.Max(metrics.BackInfoPeak, entries)

	// 5. Build one update message per target site: source-list removals
	// for trimmed outrefs, distances of retained ones (Sections 2–3), and
	// the complete holds list, which lets a receiver drop any source a
	// lost removal left behind. An update that would repeat, exactly, the
	// last one sent to that peer and carries no removal is not sent: on a
	// lossless FIFO link it would change nothing at the receiver. It is
	// sent anyway once updateRefresh commits have passed, so loss, a
	// partition or a peer restored from an older checkpoint heals within
	// that many commits. Peers we owe farewell updates to (no outrefs
	// left) get a few empty updates so a lost removal heals.
	updates := make(map[ids.SiteID]*msg.Update)
	ensure := func(site ids.SiteID) *msg.Update {
		u, ok := updates[site]
		if !ok {
			u = &msg.Update{}
			updates[site] = u
		}
		return u
	}
	for siteID, objs := range removals {
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		ensure(siteID).Removals = objs
	}
	for _, o := range s.table.Outrefs() {
		u := ensure(o.Target.Site)
		u.Holds = append(u.Holds, o.Target.Obj)
		if _, traced := res.OutrefDist[o.Target]; traced {
			u.Distances = append(u.Distances, msg.DistanceUpdate{
				Obj:      o.Target.Obj,
				Distance: o.Distance,
			})
		}
	}
	for peer := range s.peers {
		ensure(peer)
	}
	sites := make([]ids.SiteID, 0, len(updates))
	for siteID := range updates {
		sites = append(sites, siteID)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, siteID := range sites {
		if siteID == s.cfg.ID {
			continue
		}
		u := updates[siteID]
		p, ok := s.peers[siteID]
		if !ok {
			p = &peerUpdates{}
			s.peers[siteID] = p
		}
		p.since++
		if p.repeats(u) {
			s.cfg.Counters.Inc(metrics.UpdateSuppressed)
			continue
		}
		s.send(siteID, *u)
		rep.UpdatesSent++
		p.last = msg.Update{Holds: u.Holds, Distances: u.Distances}
		p.since = 0
		switch {
		case len(u.Holds) > 0:
			p.farewell = 3
		case p.farewell > 1:
			p.farewell--
		case p.farewell == 0 && len(u.Removals) > 0:
			p.farewell = 2
		default:
			delete(s.peers, siteID)
		}
	}

	// 5b. Retransmit unacknowledged inserts for outrefs that still exist,
	// in sorted order so retransmission traffic replays deterministically.
	insTargets := make([]ids.Ref, 0, len(s.pendingInserts))
	for target := range s.pendingInserts {
		insTargets = append(insTargets, target)
	}
	sort.Slice(insTargets, func(i, j int) bool { return insTargets[i].Less(insTargets[j]) })
	for _, target := range insTargets {
		if _, ok := s.table.Outref(target); !ok {
			delete(s.pendingInserts, target)
			continue
		}
		s.send(target.Site, s.pendingInserts[target])
	}

	if rep.Collected > 0 {
		s.emit(event.Event{Kind: event.ObjectsCollected, N: rep.Collected})
	}
	if rep.OutrefsTrimmed > 0 {
		s.emit(event.Event{Kind: event.OutrefsTrimmed, N: rep.OutrefsTrimmed})
	}

	// 6. Trigger back traces from outrefs whose distance has crossed
	// their back threshold (Section 4.3), then admit any parked suspects
	// whose slots freed up during the commit.
	if s.cfg.AutoBackTrace {
		rep.BackTracesStarted = s.triggerBackTracesLocked()
	}
	s.drainAdmissionsLocked()

	// Close the local-trace span (begin through commit).
	if !t0.IsZero() {
		now := s.clk.Now()
		s.histLocalDur.Observe(now.Sub(t0).Seconds())
		s.emitSpan(obs.Span{
			Kind:      obs.SpanLocalTrace,
			Start:     t0,
			End:       now,
			Collected: rep.Collected,
		})
	}
	s.flushOutbox()
	s.mu.Unlock()
	return rep
}

// handleUpdate processes a peer's post-trace update message: drop the
// sender from the source lists of removed references, reconcile against
// the sender's complete holds list (healing any previously lost update),
// and install new distances. Cleanliness transitions fire the clean rule.
func (s *Site) handleUpdate(from ids.SiteID, m msg.Update) {
	for _, obj := range m.Removals {
		s.table.RemoveSource(obj, from)
	}
	// Reconciliation: any inref still listing the sender for an object
	// the sender no longer holds an outref to must lose that source.
	holds := make(map[ids.ObjID]struct{}, len(m.Holds))
	for _, obj := range m.Holds {
		holds[obj] = struct{}{}
	}
	var stale []ids.ObjID
	s.table.EachInref(func(in *refs.Inref) {
		if _, listed := in.Sources[from]; !listed {
			return
		}
		if _, held := holds[in.Obj]; !held {
			stale = append(stale, in.Obj)
		}
	})
	for _, obj := range stale {
		s.table.RemoveSource(obj, from)
	}
	for _, du := range m.Distances {
		in, ok := s.table.Inref(du.Obj)
		if !ok {
			continue
		}
		wasClean := in.IsClean(s.threshold)
		s.table.SetSourceDistance(du.Obj, from, du.Distance)
		if !wasClean && in.IsClean(s.threshold) {
			s.engine.NotifyCleanedInref(du.Obj)
		}
	}
}

// TriggerBackTraces scans the outref table and starts a back trace from
// every suspected outref whose distance exceeds its back threshold
// (Section 4.3). It returns the number of traces started.
func (s *Site) TriggerBackTraces() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	return s.triggerBackTracesLocked()
}

// schedulerOn reports whether the trace-traffic scheduler (admission cap,
// batching, join detection, round-robin scan) is configured; off, the
// trigger keeps the legacy one-trace-per-suspect single-pass behaviour.
func (s *Site) schedulerOn() bool {
	return s.cfg.MaxInflightTraces > 0 || s.cfg.TraceBatch > 1
}

func (s *Site) triggerBackTracesLocked() int {
	if !s.schedulerOn() {
		started := 0
		for _, o := range s.table.Outrefs() {
			if s.engine.ShouldStart(o.Target) {
				if t, ok := s.startTraceAdmitted(o.Target); ok {
					s.emit(event.Event{Kind: event.TraceStarted, Trace: t, Ref: o.Target})
					started++
				}
			}
		}
		return started
	}
	return s.scheduleBackTracesLocked()
}

// scheduleBackTracesLocked is the trace-traffic scheduler's trigger scan:
// it walks the outref table round-robin from where the previous scan
// stopped, joins suspects already covered by an in-flight trace's visit
// marks, groups the rest into multi-suspect batches by inset overlap, and
// starts batches while the admission cap allows — parking the overflow in
// the distance-priority queue instead of flooding the network.
func (s *Site) scheduleBackTracesLocked() int {
	outs := s.table.Outrefs()
	// Resume round-robin: rotate the sorted scan so it starts just after
	// the suspect the previous scan stopped at.
	if s.scanCursorSet && len(outs) > 0 {
		i := sort.Search(len(outs), func(i int) bool { return s.scanCursor.Less(outs[i].Target) })
		rot := make([]*refs.Outref, 0, len(outs))
		rot = append(rot, outs[i:]...)
		rot = append(rot, outs[:i]...)
		outs = rot
	}
	var cands []ids.Ref
	for _, o := range outs {
		if !s.engine.Eligible(o.Target) || s.engine.MemoizedLive(o.Target) {
			continue
		}
		if _, queued := s.pendingSet[o.Target]; queued {
			continue
		}
		if s.engine.TraceVisiting(o.Target) {
			// An in-flight trace already holds a visit mark on this
			// suspect: its report phase will resolve it (flag on Garbage,
			// raised back threshold on Live), so the suspect joins that
			// trace instead of launching a duplicate.
			s.cfg.Counters.Inc(metrics.BackTraceJoined)
			continue
		}
		cands = append(cands, o.Target)
	}
	started := 0
	groups := s.groupSuspectsLocked(cands)
	// Largest group first: a multi-suspect batch resolves its whole cone in
	// one trace, so under a tight admission cap it buys the most coverage
	// per slot. SliceStable keeps the round-robin order within a size class.
	sort.SliceStable(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })
	for _, group := range groups {
		if s.cfg.MaxInflightTraces > 0 && s.inflight >= s.cfg.MaxInflightTraces {
			for _, target := range group {
				s.enqueuePendingLocked(target)
			}
			continue
		}
		if t, ok := s.startBatchAdmitted(group); ok {
			s.emit(event.Event{Kind: event.TraceStarted, Trace: t, Ref: group[0]})
			s.scanCursor = group[len(group)-1]
			s.scanCursorSet = true
			started++
		}
	}
	return started
}

// groupSuspectsLocked groups candidate suspects whose insets overlap (per
// the installed back information) into batches of at most Config.TraceBatch.
// Two suspects land in one group when they share an inref in their insets —
// their back-trace cones meet at that inref, so one trace's visit marks
// cover both (Section 4.5).
func (s *Site) groupSuspectsLocked(cands []ids.Ref) [][]ids.Ref {
	max := s.cfg.TraceBatch
	if max <= 1 {
		out := make([][]ids.Ref, len(cands))
		for i, c := range cands {
			out[i] = []ids.Ref{c}
		}
		return out
	}
	var groups [][]ids.Ref
	owner := make(map[ids.ObjID]int) // inset inref → group index
	for _, c := range cands {
		inset := s.back.Inset(c)
		g := -1
		for _, obj := range inset {
			if gi, ok := owner[obj]; ok && len(groups[gi]) < max {
				g = gi
				break
			}
		}
		if g < 0 {
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], c)
		for _, obj := range inset {
			if _, ok := owner[obj]; !ok {
				owner[obj] = g
			}
		}
	}
	return groups
}

// enqueuePendingLocked parks one suspect in the admission queue.
func (s *Site) enqueuePendingLocked(target ids.Ref) {
	if _, ok := s.pendingSet[target]; ok {
		return
	}
	dist := 0
	if o, ok := s.table.Outref(target); ok {
		dist = o.Distance
	}
	s.pendingSeq++
	s.pendingSet[target] = struct{}{}
	s.pendingTraces = append(s.pendingTraces, pendingTrace{target: target, dist: dist, seq: s.pendingSeq})
	s.cfg.Counters.Inc(metrics.BackTraceDeferred)
}

// drainAdmissionsLocked starts parked suspects while admission slots are
// free. It runs at the safe points of every entry path that can complete a
// trace (message delivery, commit, timeout scan) — never inside an engine
// callback.
func (s *Site) drainAdmissionsLocked() {
	if !s.admitPending || !s.schedulerOn() {
		return
	}
	s.admitPending = false
	if len(s.pendingTraces) == 0 {
		return
	}
	// Farthest distance first (the strongest suspects, Section 3), oldest
	// first on ties.
	sort.Slice(s.pendingTraces, func(i, j int) bool {
		if s.pendingTraces[i].dist != s.pendingTraces[j].dist {
			return s.pendingTraces[i].dist > s.pendingTraces[j].dist
		}
		return s.pendingTraces[i].seq < s.pendingTraces[j].seq
	})
	for len(s.pendingTraces) > 0 {
		if s.cfg.MaxInflightTraces > 0 && s.inflight >= s.cfg.MaxInflightTraces {
			return
		}
		p := s.pendingTraces[0]
		s.pendingTraces = s.pendingTraces[1:]
		delete(s.pendingSet, p.target)
		// Revalidate: the suspect may have been cleaned, trimmed, proven
		// Live, or covered by another trace while parked.
		if !s.engine.ShouldStart(p.target) {
			continue
		}
		if s.engine.TraceVisiting(p.target) {
			s.cfg.Counters.Inc(metrics.BackTraceJoined)
			continue
		}
		if t, ok := s.startTraceAdmitted(p.target); ok {
			s.emit(event.Event{Kind: event.TraceStarted, Trace: t, Ref: p.target})
		}
	}
}

// startTraceAdmitted starts one back trace through the admission
// accounting: the in-flight count rises before the engine runs (the trace
// may complete synchronously, decrementing it again via the completion
// callback) and reverts if no trace started.
func (s *Site) startTraceAdmitted(target ids.Ref) (ids.TraceID, bool) {
	s.inflight++
	s.cfg.Counters.Max(metrics.BackTraceInflight, int64(s.inflight))
	t, ok := s.engine.StartTrace(target)
	if !ok {
		s.inflight--
	}
	return t, ok
}

// startBatchAdmitted is startTraceAdmitted for a multi-suspect group; the
// whole batch occupies one admission slot (it is one trace).
func (s *Site) startBatchAdmitted(targets []ids.Ref) (ids.TraceID, bool) {
	s.inflight++
	s.cfg.Counters.Max(metrics.BackTraceInflight, int64(s.inflight))
	t, ok := s.engine.StartBatchTrace(targets)
	if !ok {
		s.inflight--
	}
	return t, ok
}

// StartBackTrace starts a back trace from a specific outref, bypassing the
// back-threshold policy (used by tests and experiments). It reports
// whether a trace started.
func (s *Site) StartBackTrace(target ids.Ref) (ids.TraceID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	t, ok := s.startTraceAdmitted(target)
	if ok {
		s.emit(event.Event{Kind: event.TraceStarted, Trace: t, Ref: target})
	}
	return t, ok
}

// StartBatchBackTrace starts one multi-suspect batched back trace from the
// given outrefs, bypassing the back-threshold policy (used by tests and
// experiments). It reports whether a trace started.
func (s *Site) StartBatchBackTrace(targets []ids.Ref) (ids.TraceID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	t, ok := s.startBatchAdmitted(targets)
	if ok {
		s.emit(event.Event{Kind: event.TraceStarted, Trace: t, Ref: targets[0]})
	}
	return t, ok
}

// InflightTraces returns the number of back traces this site currently has
// in flight as initiator (for tests and introspection).
func (s *Site) InflightTraces() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.inflight
}

// PendingAdmissions returns the number of suspects parked in the admission
// queue (for tests and introspection).
func (s *Site) PendingAdmissions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return len(s.pendingTraces)
}

// GarbageFlaggedInrefs returns the local objects whose inrefs a completed
// back trace has flagged as garbage.
func (s *Site) GarbageFlaggedInrefs() []ids.ObjID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	var out []ids.ObjID
	for _, in := range s.table.Inrefs() {
		if in.Garbage {
			out = append(out, in.Obj)
		}
	}
	return out
}

// InrefDistance returns the current distance of the inref for obj, or
// refs.DistInfinity if there is none.
func (s *Site) InrefDistance(obj ids.ObjID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	if in, ok := s.table.Inref(obj); ok {
		return in.Distance()
	}
	return refs.DistInfinity
}

// OutrefDistance returns the current distance of the outref for target, or
// refs.DistInfinity if there is none.
func (s *Site) OutrefDistance(target ids.Ref) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	if o, ok := s.table.Outref(target); ok {
		return o.Distance
	}
	return refs.DistInfinity
}
