// Package site composes a complete site of the back-tracing collector: the
// object heap, the inref/outref tables, the local tracer, and the back-
// tracing engine, wired to a transport.Network.
//
// A Site is the unit of locality in the paper: it traces its own objects
// independently, exchanges insert/update messages to maintain inter-site
// reference lists (Section 2), propagates distance estimates (Section 3),
// computes back information during local traces (Section 5), participates
// in back traces (Section 4), and applies the transfer and insert barriers
// that keep everything safe under concurrent mutation (Section 6).
//
// # Per-site concurrency architecture
//
// Mutable collector state is guarded by one RWMutex, but — unlike the
// original single-mutex design — the heavy phases no longer run inside it:
//
//   - The heap and ioref table are sharded by object-id hash into
//     max(GOMAXPROCS, Config.Shards) shards, each with its own lock,
//     write-barrier dirty set, and copy-on-write trace snapshot.
//     Heap-only mutator operations (allocation, root flips, field
//     removal) take the site read lock plus the owning shard's lock, so
//     mutators on distinct shards proceed concurrently; operations that
//     touch iorefs or send messages, and all message handlers, remain
//     short critical sections under the write lock, matching the
//     paper's model.
//   - The local trace computation (tracer.Marker: dense forward mark +
//     outset computation) runs entirely OUTSIDE the lock, on a snapshot
//     of the heap and ioref tables taken under a short critical section.
//     Heap objects are immutable (field mutators install fresh ones), so
//     the snapshot is copy-on-write: one map clone per shard, shards
//     cloned concurrently, no per-object copy. With Config.TraceWorkers
//     at most one the mark runs inline on the tracing goroutine; above
//     one it runs as a work-stealing parallel trace with bit-identical
//     results. The Section 6.2 double-buffered back information makes
//     this safe: back traces keep using the old copy, and transfer
//     barriers that fire during the computation are recorded and
//     replayed onto the new copy at commit.
//   - Introspection (Inrefs, Outrefs, counters, heap size, audits) takes
//     only the read lock, so tools and experiments never stall collectors.
//   - With Config.InboxSize > 0 the site runs a mailbox executor: network
//     threads enqueue inbound messages into a bounded inbox (blocking when
//     full — backpressure) and a single dispatch goroutine applies them in
//     arrival order, preserving per-link FIFO (the paper's R1) while
//     keeping transport threads off the site lock.
package site

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/core"
	"backtrace/internal/event"
	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/refs"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
)

// Config parameterizes a Site.
type Config struct {
	// ID is the site's identifier (must be unique in the cluster).
	ID ids.SiteID
	// Network connects the site to its peers.
	Network transport.Network
	// SuspicionThreshold is T (Section 3): iorefs with estimated distance
	// beyond T are suspected. Defaults to 3.
	SuspicionThreshold int
	// BackThreshold is T2 (Section 4.3), the initial per-ioref trigger for
	// starting a back trace; it should be T plus a conservative cycle
	// length estimate. Defaults to SuspicionThreshold + 4.
	BackThreshold int
	// ThresholdBump is δ, added to an ioref's back threshold each time a
	// back trace visits it. Defaults to 4.
	ThresholdBump int
	// OutsetAlgorithm selects the Section 5 inset computation; defaults
	// to the Section 5.2 bottom-up algorithm.
	OutsetAlgorithm tracer.OutsetAlgorithm
	// CallTimeout / ReportTimeout bound back-trace waits (Section 4.6);
	// zero disables timeouts (appropriate with a reliable transport).
	CallTimeout   time.Duration
	ReportTimeout time.Duration
	// AutoBackTrace, when true, starts back traces automatically after
	// each local trace from every outref whose distance has crossed its
	// back threshold.
	AutoBackTrace bool
	// AdaptiveThreshold, when true, raises the suspicion threshold after
	// repeated Live back-trace outcomes (the tuning knob Section 3
	// suggests: "if too many suspects are found live, the threshold
	// should be increased").
	AdaptiveThreshold bool
	// MaxInflightTraces caps the back traces this site may have in flight
	// as initiator. Suspects beyond the cap are parked in a
	// distance-priority admission queue and started as completions free
	// slots; trigger scans resume round-robin where the previous scan
	// stopped, so one commit cannot flood the network. Zero means
	// unlimited (the legacy trigger behaviour).
	MaxInflightTraces int
	// TraceBatch, when above one, groups up to that many suspected
	// outrefs whose insets overlap (per the installed back information)
	// into one multi-suspect batched trace at trigger time, so a garbage
	// cycle with many suspected entry points is resolved by one trace
	// instead of one per suspect. Zero or one keeps one trace per
	// suspect.
	TraceBatch int
	// MemoizeLive enables generation-stamped Live-verdict memoization in
	// the back-tracing engine: iorefs proven Live answer later back steps
	// without fanning out until the next trace commit (or a Section 6.4
	// clean event) invalidates the cached verdict.
	MemoizeLive bool
	// Piggyback, when true, coalesces the messages produced within one
	// protocol step (a message delivery, a trace commit, a timeout scan)
	// into one Batch envelope per destination — the piggybacking the
	// paper suggests for the small back-trace messages (Section 4.6).
	Piggyback bool
	// InboxSize, when positive, runs the site as a mailbox executor:
	// Deliver enqueues into a bounded inbox of this capacity (blocking
	// when full) and a dispatch goroutine applies messages in arrival
	// order. Zero keeps the synchronous model, where Deliver applies the
	// message on the caller's thread — required for the deterministic
	// stepped replays. Sites with an inbox must be Close()d.
	InboxSize int
	// Incremental enables incremental local tracing: mutator write
	// barriers track dirty objects and iorefs, BeginLocalTrace takes
	// O(dirty) patched snapshots instead of O(heap) map clones, and the tracer
	// remarks from the dirty set — reusing the previous trace's marks,
	// distances, and back information — whenever every change since the
	// last trace was monotone, falling back to a full trace otherwise.
	// Results are identical to full traces either way; see
	// docs/ALGORITHM.md.
	Incremental bool
	// MaxDirtyRatio bounds the incremental remark: when changed entities
	// exceed this fraction of the heap, the trace runs full (a remark
	// would touch most of the heap anyway, with worse constants). Zero
	// means tracer.DefaultMaxDirtyRatio. Only meaningful with Incremental.
	MaxDirtyRatio float64
	// Shards requests a minimum shard count for the heap and ioref table.
	// The site always uses max(GOMAXPROCS, Shards) shards, so mutator
	// operations on distinct objects contend on distinct locks and trace
	// snapshots clone/patch shards concurrently. Shard count never affects
	// observable results — only lock granularity and snapshot parallelism.
	Shards int
	// TraceWorkers is the number of mark workers local traces run with.
	// Every full trace uses the dense marker (tracer.Marker). Zero or one
	// runs it inline on the tracing goroutine, spawning no goroutines;
	// above one, the mark runs on a work-stealing pool and incremental
	// remarks relax dirty seeds on one. Results are bit-identical at
	// every worker count.
	TraceWorkers int
	// Clock supplies every timestamp the site takes: span start/end times,
	// mailbox queue-delay accounting, and the engine's timeout deadlines.
	// Nil means the wall clock; the deterministic simulation injects a
	// virtual clock so the same schedule reproduces identical span trees.
	Clock clock.Clock
	// SkipTransferBarrierUnsafe disables the Section 6.1.1 transfer
	// barrier. It exists ONLY as fault injection for the simulation model
	// checker (internal/sim), which must demonstrate that a collector
	// missing the barrier produces detectable safety violations. Never
	// enable it outside that harness.
	SkipTransferBarrierUnsafe bool
	// Counters receives metrics; may be nil (a fresh set is created).
	//
	// Deprecated: Counters is the legacy stringly-named facade. Prefer
	// reading the typed registry via Site.Metrics(); this field remains so
	// several sites can share one instrument set.
	Counters *metrics.Counters
	// Events, if non-nil, receives structured observability events
	// (trace lifecycle, barriers, sweeps, timeouts).
	Events *event.Log
	// Observer, if non-nil, receives every observability event and every
	// completed span (back-trace roots, participant engagements, local
	// traces, report phases). Callbacks run under the site lock and MUST
	// NOT call back into the Site; use obs.Tee to fan out to several
	// observers.
	Observer obs.Observer
}

func (c Config) withDefaults() Config {
	if c.SuspicionThreshold == 0 {
		c.SuspicionThreshold = 3
	}
	if c.BackThreshold == 0 {
		c.BackThreshold = c.SuspicionThreshold + 4
	}
	if c.ThresholdBump == 0 {
		c.ThresholdBump = 4
	}
	if c.OutsetAlgorithm == 0 {
		c.OutsetAlgorithm = tracer.AlgoBottomUp
	}
	if c.Counters == nil {
		c.Counters = &metrics.Counters{}
	}
	return c
}

// Site is one node of the distributed store.
type Site struct {
	cfg Config
	// clk is Config.Clock with the wall-clock default applied; every
	// timestamp the site takes goes through it.
	clk clock.Clock

	// traceMu serializes local-trace lifecycles (Begin through Commit) so
	// at most one trace computation is in flight per site. It is always
	// acquired before mu, never while holding it.
	traceMu sync.Mutex

	// mu guards everything below. Writers (mutator operations, message
	// handlers, trace commits) take the write lock; introspection takes
	// the read lock.
	mu     sync.RWMutex
	heap   *heap.Heap
	table  *refs.Table
	engine *core.Engine
	back   *tracer.BackInfo

	// threshold is the current suspicion threshold T. It starts at
	// Config.SuspicionThreshold and may be raised by AdaptiveThreshold;
	// it lives here rather than in cfg so Config stays a copyable value.
	threshold int

	// tracing is true from a local trace's snapshot until its commit (or
	// abandonment); transfer barriers record their applications while it
	// is set so the commit can replay them onto the new back information.
	tracing bool
	// traceEpoch counts trace commits and wholesale state replacements; a
	// Begin records it at snapshot time and discards its result if the
	// epoch moved before installation.
	traceEpoch uint64
	// pending holds a computed-but-uncommitted local trace (Section 6.2:
	// the "new copy" being prepared while back traces still use the old).
	pending *tracer.Result
	// pendingBarrierInrefs / pendingBarrierOutrefs record transfer-barrier
	// applications that arrived while tracing; their cleaning is
	// re-applied to the new copy at commit.
	pendingBarrierInrefs  []ids.ObjID
	pendingBarrierOutrefs []ids.Ref

	// incr carries trace-to-trace state for incremental local traces
	// (Config.Incremental); full keeps the dense mark table for full
	// traces otherwise. Both are guarded by traceMu, not mu: they are
	// touched only inside a local-trace lifecycle.
	incr *tracer.Incremental
	full tracer.Marker

	liveStreak int // consecutive Live outcomes, for AdaptiveThreshold

	// --- trace-scheduler state (guarded by mu) ---

	// inflight counts back traces this site initiated that have not
	// completed; the admission controller compares it to
	// Config.MaxInflightTraces.
	inflight int
	// pendingTraces is the admission queue: suspects that were eligible
	// when the cap was reached, admitted in farthest-distance-first (then
	// oldest-first) order as slots free up. pendingSet dedupes it.
	pendingTraces []pendingTrace
	pendingSet    map[ids.Ref]struct{}
	pendingSeq    uint64
	// admitPending is set by the trace-completed callback (which runs
	// inside an engine call and must not re-enter it) and drained at the
	// next safe point of the entry path that triggered the completion.
	admitPending bool
	// scanCursor is where the last trigger scan stopped; the next scan
	// resumes after it (round-robin fairness across suspects).
	scanCursor    ids.Ref
	scanCursorSet bool

	// inbox is the bounded mailbox (nil when InboxSize == 0).
	inbox *mailbox

	// outbox holds messages coalesced per destination while a protocol
	// step runs (Piggyback mode); outboxOrder keeps flushing
	// deterministic.
	outbox      map[ids.SiteID][]msg.Message
	outboxOrder []ids.SiteID

	// pendingInserts tracks insert messages awaiting acknowledgement;
	// they are retransmitted at each local trace so a lost insert heals.
	pendingInserts map[ids.Ref]msg.Insert
	// peers keeps the post-trace update state of each peer site: the last
	// Update sent to it, the commits since, and the farewell countdown
	// (see peerUpdates). It is not checkpointed, so a restored site's
	// first commit sends every peer a full Update.
	peers map[ids.SiteID]*peerUpdates

	completions []TraceOutcome

	// --- observability state (guarded by mu, like everything above) ---

	// partStart records when this site became active in each back trace;
	// the participant-end hook turns the pair into a SpanParticipant.
	// For traces this site initiated the entry also anchors the root span
	// (the outermost frame lives exactly as long as the trace).
	partStart map[ids.TraceID]time.Time
	// traceQueueWait accumulates, per active trace, the mailbox queueing
	// delay of the messages consumed on its behalf.
	traceQueueWait map[ids.TraceID]time.Duration
	// curQueueWait is the queue delay of the message currently being
	// dispatched; the first trace-carrying message in the delivery (one
	// Batch can carry several) consumes and zeroes it.
	curQueueWait time.Duration
	// localTraceT0 is the wall-clock start of the local trace between
	// BeginLocalTrace and CommitLocalTrace (guarded by traceMu).
	localTraceT0 time.Time

	// Typed instruments, declared once at construction on the shared
	// registry so the hot paths never take the registry lock.
	histRTT      *obs.Histogram
	histLocalDur *obs.Histogram
	histQueue    *obs.Histogram
	gaugeDepth   *obs.Gauge
	gaugeDirty   *obs.Gauge
}

// pendingTrace is one parked suspect in the admission queue.
type pendingTrace struct {
	target ids.Ref
	dist   int    // outref distance at enqueue time (farther = more suspect)
	seq    uint64 // enqueue order, for age tie-breaking
}

// TraceOutcome records one completed back trace initiated by this site.
type TraceOutcome struct {
	Trace        ids.TraceID
	Outcome      msg.Verdict
	Participants []ids.SiteID
}

var _ transport.Handler = (*Site)(nil)

// New creates a site and registers it on the network.
func New(cfg Config) *Site {
	cfg = cfg.withDefaults()
	shards := runtime.GOMAXPROCS(0)
	if cfg.Shards > shards {
		shards = cfg.Shards
	}
	s := &Site{
		cfg:            cfg,
		clk:            clock.OrWall(cfg.Clock),
		heap:           heap.NewSharded(cfg.ID, shards),
		table:          refs.NewTableSharded(cfg.ID, cfg.BackThreshold, shards),
		back:           tracer.EmptyBackInfo(),
		threshold:      cfg.SuspicionThreshold,
		pendingInserts: make(map[ids.Ref]msg.Insert),
		peers:          make(map[ids.SiteID]*peerUpdates),
		pendingSet:     make(map[ids.Ref]struct{}),
		outbox:         make(map[ids.SiteID][]msg.Message),
		partStart:      make(map[ids.TraceID]time.Time),
		traceQueueWait: make(map[ids.TraceID]time.Duration),
	}
	if cfg.Incremental {
		s.heap.EnableDeltaTracking()
		s.table.EnableDeltaTracking()
		s.incr = &tracer.Incremental{
			MaxDirtyRatio: cfg.MaxDirtyRatio,
			Workers:       cfg.TraceWorkers,
		}
	}
	s.full.Workers = cfg.TraceWorkers
	reg := cfg.Counters.Registry()
	s.histRTT = reg.Histogram(obs.MetricBackTraceRTT,
		"wall-clock duration of back traces initiated by this site", nil)
	s.histLocalDur = reg.Histogram(obs.MetricLocalTraceDuration,
		"wall-clock duration of local traces (begin through commit)", nil)
	s.histQueue = reg.Histogram(obs.MetricMailboxQueueDelay,
		"time inbound messages spent queued in a site mailbox", nil)
	s.gaugeDepth = reg.Gauge(obs.MetricMailboxDepth,
		"inbox depth observed at the most recent enqueue")
	s.gaugeDirty = reg.Gauge(metrics.ParallelShardDirtyRatio,
		"percent of the dirtiest heap shard mutated since the last trace snapshot")
	reg.Gauge(metrics.HeapShards,
		"number of heap and ioref-table shards").Set(int64(shards))
	workers := cfg.TraceWorkers
	if workers < 1 {
		workers = 1
	}
	reg.Gauge(metrics.ParallelWorkers,
		"number of mark workers local traces run with").Set(int64(workers))
	// Declare the trace-traffic instruments up front so scrapes see them
	// at zero even before the first back trace (or with the engine off).
	reg.Gauge(metrics.BackTraceInflight,
		"high-water mark of concurrently in-flight back traces initiated by this site")
	reg.Gauge(metrics.BackTraceBatchSize,
		"high-water mark of suspects carried by one multi-suspect back trace")
	reg.Counter(metrics.BackTraceMemoHits,
		"back steps and trigger scans answered from a memoized Live verdict")
	reg.Counter(metrics.BackTraceJoined,
		"suspects absorbed into an active back trace already visiting their cone")
	reg.Counter(metrics.BackTraceDeferred,
		"suspects parked in the admission queue because the in-flight cap was reached")
	reg.Counter(metrics.UpdateSuppressed,
		"post-trace update messages not sent because they repeated the last one sent to that peer")
	s.engine = core.NewEngine(core.Config{
		Site:          cfg.ID,
		Threshold:     s.threshold,
		ThresholdBump: cfg.ThresholdBump,
		CallTimeout:   cfg.CallTimeout,
		ReportTimeout: cfg.ReportTimeout,
		MemoizeLive:   cfg.MemoizeLive,
		Now:           s.clk.Now,
		Send:          s.send,
		Table:         s.table,
		Inset:         func(target ids.Ref) []ids.ObjID { return s.back.Inset(target) },
		Counters:      cfg.Counters,
		Completed:     s.onTraceCompleted,
		OnFlagged: func(obj ids.ObjID) {
			s.emit(event.Event{Kind: event.InrefFlagged, Obj: obj})
		},
		OnTimeout: func(t ids.TraceID) {
			s.emit(event.Event{Kind: event.TimeoutAssumedLive, Trace: t})
		},
		OnParticipantStart: s.onParticipantStart,
		OnParticipantEnd:   s.onParticipantEnd,
	})
	if cfg.InboxSize > 0 {
		s.inbox = newMailbox(s, cfg.InboxSize)
	}
	cfg.Network.Register(cfg.ID, s)
	return s
}

// Close stops the mailbox dispatch goroutine, discarding any queued
// messages (the protocol tolerates message loss). It is a no-op for sites
// without an inbox and is safe to call more than once.
func (s *Site) Close() {
	if s.inbox != nil {
		s.inbox.stop()
	}
}

// InboxDepth returns the number of inbound messages queued or being
// dispatched; zero for sites without an inbox.
func (s *Site) InboxDepth() int {
	if s.inbox == nil {
		return 0
	}
	return s.inbox.depth()
}

// AwaitInboxIdle blocks until the inbox is empty and no message is being
// dispatched, or the timeout elapses. It returns immediately for sites
// without an inbox.
func (s *Site) AwaitInboxIdle(timeout time.Duration) error {
	if s.inbox == nil {
		return nil
	}
	return s.inbox.awaitIdle(timeout)
}

// ID returns the site's identifier.
func (s *Site) ID() ids.SiteID { return s.cfg.ID }

// Counters returns the site's metrics counters.
//
// Deprecated: use Metrics for a typed snapshot, or Registry on the
// returned value for declaring new instruments.
func (s *Site) Counters() *metrics.Counters { return s.cfg.Counters }

// Metrics returns a point-in-time snapshot of every typed instrument
// backing this site's metrics (counters, gauges, and latency histograms).
// Sites created with a shared Counters set report the shared values.
func (s *Site) Metrics() obs.Snapshot { return s.cfg.Counters.Registry().Snapshot() }

// send transmits (or, in Piggyback mode, queues) one protocol message. It
// is called with the site lock held; flushOutbox runs before the lock is
// released by every entry point that can send.
func (s *Site) send(to ids.SiteID, m msg.Message) {
	if !s.cfg.Piggyback {
		s.cfg.Network.Send(s.cfg.ID, to, m)
		return
	}
	if _, ok := s.outbox[to]; !ok {
		s.outboxOrder = append(s.outboxOrder, to)
	}
	s.outbox[to] = append(s.outbox[to], m)
}

// flushOutbox ships the coalesced messages: one Batch envelope per
// destination (or the bare message when only one queued).
func (s *Site) flushOutbox() {
	if !s.cfg.Piggyback || len(s.outboxOrder) == 0 {
		return
	}
	for _, to := range s.outboxOrder {
		items := s.outbox[to]
		delete(s.outbox, to)
		switch len(items) {
		case 0:
		case 1:
			s.cfg.Network.Send(s.cfg.ID, to, items[0])
		default:
			s.cfg.Network.Send(s.cfg.ID, to, msg.Batch{Items: items})
		}
	}
	s.outboxOrder = s.outboxOrder[:0]
}

// emit appends an observability event if a log is configured, and forwards
// it to the configured observer.
func (s *Site) emit(e event.Event) {
	e.Site = s.cfg.ID
	if s.cfg.Events != nil {
		s.cfg.Events.Append(e)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnEvent(e)
	}
}

// emitSpan stamps the site onto a finished span and forwards it to the
// configured observer. Called with the site lock held (or, for local-trace
// spans, under traceMu), which is why Observer callbacks must not call back
// into the Site.
func (s *Site) emitSpan(sp obs.Span) {
	if s.cfg.Observer == nil {
		return
	}
	sp.Site = s.cfg.ID
	s.cfg.Observer.OnSpan(sp)
}

// onParticipantStart runs (with the lock held) when the engine first
// engages this site in a back trace.
func (s *Site) onParticipantStart(t ids.TraceID) {
	s.partStart[t] = s.clk.Now()
}

// onParticipantEnd runs (with the lock held) when the last activation
// frame for a trace completes here; it closes the participant span and
// releases the trace's queue-wait accumulator.
func (s *Site) onParticipantEnd(t ids.TraceID, hops int) {
	start := s.partStart[t]
	delete(s.partStart, t)
	wait := s.traceQueueWait[t]
	delete(s.traceQueueWait, t)
	s.emitSpan(obs.Span{
		Trace:     t,
		Kind:      obs.SpanParticipant,
		Start:     start,
		End:       s.clk.Now(),
		Hops:      hops,
		QueueWait: wait,
	})
}

// noteTraceQueueWait attributes the queue delay of the message being
// dispatched to the trace it belongs to. The first trace-carrying message
// of a delivery consumes the delay; later items of the same Batch add
// nothing.
func (s *Site) noteTraceQueueWait(t ids.TraceID) {
	if s.curQueueWait > 0 {
		s.traceQueueWait[t] += s.curQueueWait
		s.curQueueWait = 0
	}
}

// onTraceCompleted runs (with the lock held) when a trace this site
// initiated finishes.
func (s *Site) onTraceCompleted(t ids.TraceID, outcome msg.Verdict, participants []ids.SiteID) {
	if s.inflight > 0 {
		s.inflight--
	}
	if len(s.pendingTraces) > 0 {
		// A slot freed up. This callback runs inside an engine call, so
		// admission is deferred to the entry path's next safe point.
		s.admitPending = true
	}
	s.completions = append(s.completions, TraceOutcome{Trace: t, Outcome: outcome, Participants: participants})
	s.emit(event.Event{Kind: event.TraceCompleted, Trace: t, Verdict: outcome, N: len(participants)})
	// Close the root span. The initiator's activity opened with the trace
	// and its outermost frame is still live here, so partStart[t] is the
	// trace's start; the participant span itself closes just after this
	// callback returns.
	now := s.clk.Now()
	start := s.partStart[t]
	if start.IsZero() {
		start = now
	}
	s.histRTT.Observe(now.Sub(start).Seconds())
	s.emitSpan(obs.Span{
		Trace:        t,
		Kind:         obs.SpanBackTrace,
		Start:        start,
		End:          now,
		Verdict:      outcome,
		Participants: participants,
	})
	if !s.cfg.AdaptiveThreshold {
		return
	}
	if outcome == msg.VerdictLive {
		s.liveStreak++
		if s.liveStreak >= 3 {
			// Too many live suspects: raise T (Section 3).
			s.threshold++
			s.engine.SetThreshold(s.threshold)
			s.liveStreak = 0
		}
	} else {
		s.liveStreak = 0
	}
}

// Completions drains and returns the outcomes of back traces initiated by
// this site since the previous call. Draining is a write, and engine
// callbacks may have queued piggybacked messages, so it flushes the outbox
// like every other write entry point.
func (s *Site) Completions() []TraceOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	out := s.completions
	s.completions = nil
	return out
}

// Deliver implements transport.Handler: it dispatches one inbound message.
// With an inbox configured it only enqueues (blocking while the inbox is
// full); otherwise it applies the message on the caller's thread. The
// transport invokes it serially per link, so enqueue order preserves R1.
func (s *Site) Deliver(from ids.SiteID, m msg.Message) {
	if s.inbox != nil {
		s.inbox.enqueue(from, m)
		return
	}
	s.deliverNow(from, m)
}

// deliverNow applies one inbound message under the site lock. It is the
// synchronous half of Deliver.
func (s *Site) deliverNow(from ids.SiteID, m msg.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	s.deliverLocked(from, m)
	s.drainAdmissionsLocked()
}

// deliverQueued is the mailbox dispatcher's entry point: like deliverNow,
// but it records how long the message waited in the inbox so the delay can
// be attributed to the back trace it belongs to.
func (s *Site) deliverQueued(from ids.SiteID, m msg.Message, wait time.Duration) {
	s.histQueue.Observe(wait.Seconds())
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	s.curQueueWait = wait
	s.deliverLocked(from, m)
	s.curQueueWait = 0
	s.drainAdmissionsLocked()
}

func (s *Site) deliverLocked(from ids.SiteID, m msg.Message) {
	switch mm := m.(type) {
	case msg.RefTransfer:
		s.handleRefTransfer(from, mm)
	case msg.Insert:
		s.handleInsert(from, mm)
	case msg.InsertAck:
		// The holder's outref is now protected by the owner's source
		// list: stop retransmitting the insert.
		delete(s.pendingInserts, mm.Target)
	case msg.ReleasePin:
		s.handleReleasePin(from, mm)
	case msg.Update:
		s.handleUpdate(from, mm)
	case msg.BackCall:
		s.noteTraceQueueWait(mm.Trace)
		s.engine.HandleBackCall(from, mm)
	case msg.BackReply:
		// A late reply (frame already closed by timeout or short-circuit)
		// must not re-open the trace's wait accumulator.
		if _, active := s.partStart[mm.Trace]; active {
			s.noteTraceQueueWait(mm.Trace)
		}
		s.engine.HandleBackReply(from, mm)
	case msg.Report:
		t0 := s.clk.Now()
		s.engine.HandleReport(from, mm)
		s.emitSpan(obs.Span{
			Trace:   mm.Trace,
			Kind:    obs.SpanReport,
			Start:   t0,
			End:     s.clk.Now(),
			Verdict: mm.Outcome,
		})
	case msg.Batch:
		for _, item := range mm.Items {
			s.deliverLocked(from, item)
		}
	}
}

// CheckTimeouts expires overdue back-trace state (Section 4.6). Call it
// periodically when running over an unreliable transport.
func (s *Site) CheckTimeouts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.flushOutbox()
	s.engine.CheckTimeouts()
	s.drainAdmissionsLocked()
}

// assertOutboxFlushed panics if a write entry point left piggybacked
// messages stranded in the outbox. Read-only entry points hold only the
// read lock and so cannot flush; they assert instead, turning a stranded
// Batch into a loud failure rather than a silent protocol stall.
func (s *Site) assertOutboxFlushed() {
	if len(s.outboxOrder) != 0 {
		panic(fmt.Sprintf("site %v: %d destination(s) stranded in piggyback outbox", s.cfg.ID, len(s.outboxOrder)))
	}
}

// SuspicionThreshold returns the site's current suspicion threshold T
// (which AdaptiveThreshold may have raised).
func (s *Site) SuspicionThreshold() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.threshold
}

// --- introspection for tests, tools, and experiments ---------------------

// NumObjects returns the number of objects in the heap.
func (s *Site) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.heap.Len()
}

// ContainsObject reports whether the heap holds the object.
func (s *Site) ContainsObject(obj ids.ObjID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.heap.Contains(obj)
}

// NumInrefs and NumOutrefs report table sizes.
func (s *Site) NumInrefs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.table.NumInrefs()
}

// NumOutrefs reports the outref table size.
func (s *Site) NumOutrefs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.table.NumOutrefs()
}

// InrefInfo describes one inref for introspection.
type InrefInfo struct {
	Obj      ids.ObjID
	Distance int
	Sources  []ids.SiteID
	Clean    bool
	Garbage  bool
}

// Inrefs returns a snapshot of the inref table.
func (s *Site) Inrefs() []InrefInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	out := make([]InrefInfo, 0, s.table.NumInrefs())
	for _, in := range s.table.Inrefs() {
		out = append(out, InrefInfo{
			Obj:      in.Obj,
			Distance: in.Distance(),
			Sources:  in.SourceSites(),
			Clean:    in.IsClean(s.threshold),
			Garbage:  in.Garbage,
		})
	}
	return out
}

// OutrefInfo describes one outref for introspection.
type OutrefInfo struct {
	Target        ids.Ref
	Distance      int
	Clean         bool
	Pinned        bool
	BackThreshold int
	Inset         []ids.ObjID
}

// Outrefs returns a snapshot of the outref table.
func (s *Site) Outrefs() []OutrefInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	out := make([]OutrefInfo, 0, s.table.NumOutrefs())
	for _, o := range s.table.Outrefs() {
		out = append(out, OutrefInfo{
			Target:        o.Target,
			Distance:      o.Distance,
			Clean:         o.IsClean(s.threshold),
			Pinned:        o.Pins > 0,
			BackThreshold: o.BackThreshold,
			Inset:         s.back.Inset(o.Target),
		})
	}
	return out
}

// BackInfoEntries returns the current number of (inref, outref) pairs in
// the installed back information — the paper's O(ni·no)-bounded quantity.
func (s *Site) BackInfoEntries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.back.Entries()
}

// ActiveFrames exposes the engine's live activation-frame count.
func (s *Site) ActiveFrames() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertOutboxFlushed()
	return s.engine.ActiveFrames()
}
