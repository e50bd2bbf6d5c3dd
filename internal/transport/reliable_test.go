package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/wire"
)

// chaosReliable builds a Reliable layer over a memnet with the given fault
// probabilities and registers collectors for sites 1..n.
func chaosReliable(t *testing.T, opts Options, n int) (*Reliable, *Net, map[ids.SiteID]*collector, *metrics.Counters) {
	t.Helper()
	counters := &metrics.Counters{}
	inner := NewNet(opts)
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: 2 * time.Millisecond,
		Counters:          counters,
	})
	t.Cleanup(r.Close)
	cols := make(map[ids.SiteID]*collector, n)
	for i := 1; i <= n; i++ {
		id := ids.SiteID(i)
		cols[id] = &collector{self: id}
		r.Register(id, cols[id])
	}
	return r, inner, cols, counters
}

// settleReliable waits for every sent frame to be acknowledged and every
// delivery (including trailing acks) to finish.
func settleReliable(t *testing.T, r *Reliable, inner *Net) {
	t.Helper()
	if err := r.AwaitIdle(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := inner.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReliableExactlyOnceInOrderUnderChaos is the acceptance assertion for
// the session layer: under 30% loss plus duplication plus reordering, every
// message reaches its handler exactly once, in per-link send order.
func TestReliableExactlyOnceInOrderUnderChaos(t *testing.T) {
	r, inner, cols, counters := chaosReliable(t, Options{
		DropProb:    0.3,
		DupProb:     0.3,
		ReorderProb: 0.3,
		Seed:        42,
		Jitter:      200 * time.Microsecond,
	}, 3)

	const perLink = 400
	// Interleave two links from site 1 so per-link order is tested with
	// cross-link traffic in between.
	for i := uint64(1); i <= perLink; i++ {
		r.Send(1, 2, ping(i))
		r.Send(1, 3, ping(i))
	}
	settleReliable(t, r, inner)

	for _, to := range []ids.SiteID{2, 3} {
		got := cols[to].snapshot()
		if len(got) != perLink {
			t.Fatalf("site %v: delivered %d messages, want exactly %d", to, len(got), perLink)
		}
		for i, env := range got {
			if env.From != 1 {
				t.Fatalf("site %v: message %d from %v, want 1", to, i, env.From)
			}
			if pingSeq(env.M) != uint64(i+1) {
				t.Fatalf("site %v: out of order at %d: seq %d", to, i, pingSeq(env.M))
			}
		}
	}
	if counters.Get(metrics.LinkRetransmits) == 0 {
		t.Error("no retransmissions recorded under 30% loss")
	}
	if counters.Get(metrics.LinkDupDropped) == 0 {
		t.Error("no duplicates dropped under 30% duplication")
	}
	if counters.Get(metrics.LinkAcksSent) == 0 {
		t.Error("no acks recorded")
	}
}

// TestReliableWindowQueuesBeyondLimit: sends past the in-flight window queue
// at the sender and still arrive, in order, as acks open the window.
func TestReliableWindowQueuesBeyondLimit(t *testing.T) {
	counters := &metrics.Counters{}
	inner := NewNet(Options{})
	r := NewReliable(inner, ReliableOptions{
		Window:            4,
		RetransmitInitial: 2 * time.Millisecond,
		Counters:          counters,
	})
	defer r.Close()
	c1, c2 := &collector{self: 1}, &collector{self: 2}
	r.Register(1, c1)
	r.Register(2, c2)

	const total = 100
	for i := uint64(1); i <= total; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)
	got := c2.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	for i, env := range got {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
}

// TestReliablePassthroughUnwrapped: bare protocol messages from a peer not
// running the session layer reach the handler unchanged.
func TestReliablePassthroughUnwrapped(t *testing.T) {
	inner := NewNet(Options{})
	r := NewReliable(inner, ReliableOptions{})
	defer r.Close()
	c2 := &collector{self: 2}
	r.Register(2, c2)

	inner.Send(1, 2, ping(9)) // bypasses the session layer entirely
	if err := inner.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := c2.snapshot()
	if len(got) != 1 || pingSeq(got[0].M) != 9 {
		t.Fatalf("passthrough delivery wrong: %+v", got)
	}
}

// TestReliableRestartResetsSession: after a site restart (NotifyRestart),
// peers open a fresh epoch, stale frames from the old session are rejected,
// and new traffic flows exactly once.
func TestReliableRestartResetsSession(t *testing.T) {
	r, inner, cols, counters := chaosReliable(t, Options{}, 2)

	for i := uint64(1); i <= 5; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)
	if cols[2].count() != 5 {
		t.Fatalf("pre-restart: delivered %d, want 5", cols[2].count())
	}
	oldInc := r.Incarnation(2)

	// Site 2 crashes and restarts; recovery announces the new incarnation.
	r.NotifyRestart(2, oldInc+1, []ids.SiteID{1})
	if err := inner.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.Incarnation(2); got != oldInc+1 {
		t.Fatalf("incarnation = %d, want %d", got, oldInc+1)
	}
	if counters.Get(metrics.LinkResets) == 0 {
		t.Fatal("no link resets recorded")
	}

	// New traffic opens a post-restart session and flows normally.
	for i := uint64(6); i <= 10; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)

	// A stale frame from site 1's pre-restart session (epoch 1) must be
	// rejected, not delivered: the receiver's session is now at a higher
	// epoch.
	inner.Send(1, 2, msg.LinkData{Epoch: 1, Seq: 2, Payload: ping(99)})
	settleReliable(t, r, inner)

	got := cols[2].snapshot()
	if len(got) != 10 {
		t.Fatalf("delivered %d total, want 10 (stale frame must not deliver)", len(got))
	}
	for _, env := range got {
		if pingSeq(env.M) == 99 {
			t.Fatal("stale old-epoch frame was delivered after restart")
		}
	}
	if counters.Get(metrics.LinkStaleDropped) == 0 {
		t.Error("stale frame not counted as dropped")
	}
}

// TestReliableRestartDropsQueuedTraffic: frames in flight toward a crashed
// site are abandoned on reset (counted, not replayed into the new
// incarnation).
func TestReliableRestartDropsQueuedTraffic(t *testing.T) {
	// Only site 1 is up: site 2 is "down" (unregistered), so frames toward
	// it vanish in the inner network and sit unacknowledged in the window.
	r, inner, _, counters := chaosReliable(t, Options{}, 1)

	for i := uint64(1); i <= 7; i++ {
		r.Send(1, 2, ping(i))
	}

	// Site 2 restarts from a checkpoint and announces it. Site 1 abandons
	// the seven frames: they were addressed to the dead incarnation.
	r.NotifyRestart(2, 0, []ids.SiteID{1})
	settleReliable(t, r, inner)

	if got := counters.Get(metrics.LinkResetDropped); got != 7 {
		t.Fatalf("reset dropped %d frames, want 7", got)
	}
	// Traffic sent after the reset starts a new session and arrives.
	c2 := &collector{self: 2}
	r.Register(2, c2)
	r.Send(1, 2, ping(100))
	settleReliable(t, r, inner)
	got := c2.snapshot()
	if len(got) != 1 || pingSeq(got[0].M) != 100 {
		t.Fatalf("post-reset delivery wrong: %+v", got)
	}
}

// TestReliableCrashRetransmitHealsWithoutReset: a transient outage (network
// partition, no restart) is healed purely by retransmission — nothing is
// lost and nothing is duplicated.
func TestReliableCrashRetransmitHealsWithoutReset(t *testing.T) {
	r, inner, cols, _ := chaosReliable(t, Options{}, 2)

	inner.Partition(1, 2)
	for i := uint64(1); i <= 20; i++ {
		r.Send(1, 2, ping(i))
	}
	time.Sleep(10 * time.Millisecond)
	if cols[2].count() != 0 {
		t.Fatal("partitioned link delivered")
	}
	inner.Heal(1, 2)
	settleReliable(t, r, inner)

	got := cols[2].snapshot()
	if len(got) != 20 {
		t.Fatalf("delivered %d after heal, want 20", len(got))
	}
	for i, env := range got {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
}

// TestReliableAwaitIdleReportsStuckFrames: with the link cut, AwaitIdle
// times out and says how many frames are unacknowledged.
func TestReliableAwaitIdleReportsStuckFrames(t *testing.T) {
	r, inner, _, _ := chaosReliable(t, Options{}, 2)
	inner.Partition(1, 2)
	r.Send(1, 2, ping(1))
	err := r.AwaitIdle(20 * time.Millisecond)
	if err == nil {
		t.Fatal("AwaitIdle succeeded with an unacknowledgeable frame")
	}
	if !strings.Contains(err.Error(), "1 frame") {
		t.Fatalf("error %q does not mention the stuck frame", err)
	}
}

// TestReliableCloseIsIdempotent mirrors the memnet close contract.
func TestReliableCloseIsIdempotent(t *testing.T) {
	inner := NewNet(Options{})
	r := NewReliable(inner, ReliableOptions{})
	c := &collector{self: 2}
	r.Register(2, c)
	r.Close()
	r.Close() // must not panic
	r.Send(1, 2, ping(1))
	if c.count() != 0 {
		t.Error("send after close was delivered")
	}
}

// batchedReliable builds a batching Reliable over a memnet, with an inner
// observer counting physical envelopes by type.
func batchedReliable(t *testing.T, opts Options, batch int, n int) (*Reliable, *Net, map[ids.SiteID]*collector, *metrics.Counters, *envelopeTally) {
	t.Helper()
	tally := &envelopeTally{}
	opts.Observer = tally.observe
	counters := &metrics.Counters{}
	inner := NewNet(opts)
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: 5 * time.Millisecond,
		FlushInterval:     time.Millisecond,
		BatchMax:          batch,
		Counters:          counters,
	})
	t.Cleanup(r.Close)
	cols := make(map[ids.SiteID]*collector, n)
	for i := 1; i <= n; i++ {
		id := ids.SiteID(i)
		cols[id] = &collector{self: id}
		r.Register(id, cols[id])
	}
	return r, inner, cols, counters, tally
}

// envelopeTally counts the physical envelopes entering the inner network.
type envelopeTally struct {
	mu              sync.Mutex
	total           int
	data            int
	batches         int
	standaloneAcks  int
	piggybackedAcks int
}

func (e *envelopeTally) observe(env msg.Envelope, dropped bool) {
	if dropped {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.total++
	switch m := env.M.(type) {
	case msg.LinkData:
		e.data++
	case msg.LinkBatch:
		e.batches++
		if m.AckEpoch != 0 {
			e.piggybackedAcks++
		}
	case msg.LinkAck:
		e.standaloneAcks++
	}
}

func (e *envelopeTally) snapshot() envelopeTally {
	e.mu.Lock()
	defer e.mu.Unlock()
	return envelopeTally{total: e.total, data: e.data, batches: e.batches,
		standaloneAcks: e.standaloneAcks, piggybackedAcks: e.piggybackedAcks}
}

// TestReliableBatchingExactlyOnceUnderChaos re-runs the session layer's
// acceptance assertion with link-level batching on: 30% loss plus
// duplication plus reordering, and every message still reaches its handler
// exactly once, in per-link send order.
func TestReliableBatchingExactlyOnceUnderChaos(t *testing.T) {
	r, inner, cols, counters, tally := batchedReliable(t, Options{
		DropProb:    0.3,
		DupProb:     0.3,
		ReorderProb: 0.3,
		Seed:        42,
		Jitter:      200 * time.Microsecond,
	}, 8, 3)

	const perLink = 400
	for i := uint64(1); i <= perLink; i++ {
		r.Send(1, 2, ping(i))
		r.Send(1, 3, ping(i))
	}
	settleReliable(t, r, inner)

	for _, to := range []ids.SiteID{2, 3} {
		got := cols[to].snapshot()
		if len(got) != perLink {
			t.Fatalf("site %v: delivered %d messages, want exactly %d", to, len(got), perLink)
		}
		for i, env := range got {
			if pingSeq(env.M) != uint64(i+1) {
				t.Fatalf("site %v: out of order at %d: seq %d", to, i, pingSeq(env.M))
			}
		}
	}
	if counters.Get(metrics.LinkRetransmits) == 0 {
		t.Error("no retransmissions recorded under 30% loss")
	}
	if tal := tally.snapshot(); tal.batches == 0 {
		t.Error("no LinkBatch frames on the wire with batching enabled")
	}
	if counters.Get(metrics.WireFlushes) == 0 {
		t.Error("no batch flushes counted")
	}
}

// TestReliableBatchingCoalescesFrames: on a clean link, a burst of sends
// coalesces into far fewer physical envelopes than messages, without losing
// or reordering anything.
func TestReliableBatchingCoalescesFrames(t *testing.T) {
	r, inner, cols, counters, tally := batchedReliable(t, Options{}, 16, 2)

	const total = 320
	for i := uint64(1); i <= total; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)

	got := cols[2].snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	for i, env := range got {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
	tal := tally.snapshot()
	// A tight send loop against a 16-deep batcher must coalesce well below
	// one envelope per message; allow generous slack for flush-tick races.
	if tal.total >= total {
		t.Errorf("batching sent %d envelopes for %d messages (no coalescing)", tal.total, total)
	}
	if tal.batches == 0 {
		t.Error("no LinkBatch frames observed")
	}
	if hw := counters.Get(metrics.WireBatchSize); hw < 2 {
		t.Errorf("batch size high-water %d, want >= 2", hw)
	}
}

// TestReliableBatchingPiggybacksAcks: an ack owed for received traffic
// rides the next reverse-direction data batch instead of going out as a
// standalone LinkAck frame. The batcher runs on a virtual clock so the test
// controls exactly when flushes happen.
func TestReliableBatchingPiggybacksAcks(t *testing.T) {
	tally := &envelopeTally{}
	vc := clock.NewVirtual(time.Unix(0, 0))
	inner := NewNet(Options{Observer: tally.observe})
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: time.Minute, // never fires: only explicit flushes transmit
		FlushInterval:     time.Millisecond,
		BatchMax:          8,
		Clock:             vc,
		Counters:          &metrics.Counters{},
	})
	defer r.Close()
	c1, c2 := &collector{self: 1}, &collector{self: 2}
	r.Register(1, c1)
	r.Register(2, c2)

	// tick fires one flush interval and lets the resulting deliveries land.
	tick := func() {
		t.Helper()
		time.Sleep(5 * time.Millisecond) // let flushLoop re-arm its timer
		vc.Advance(2 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
		if err := inner.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Wave 1: data 1->2 sits in the batcher until the flush tick; site 2
	// then owes an ack for it.
	for i := uint64(1); i <= 3; i++ {
		r.Send(1, 2, ping(i))
	}
	tick()
	if got := c2.count(); got != 3 {
		t.Fatalf("site 2 delivered %d, want 3", got)
	}

	// Wave 2: data 2->1 flushes while the ack is owed, so the ack must ride
	// the batch.
	for i := uint64(1); i <= 3; i++ {
		r.Send(2, 1, ping(i))
	}
	tick()
	if got := c1.count(); got != 3 {
		t.Fatalf("site 1 delivered %d, want 3", got)
	}
	tal := tally.snapshot()
	if tal.piggybackedAcks == 0 {
		t.Errorf("no piggybacked acks (batches %d, standalone acks %d)", tal.batches, tal.standaloneAcks)
	}
	if tal.standaloneAcks != 0 {
		t.Errorf("%d standalone acks before any ack-only flush was due", tal.standaloneAcks)
	}

	// A final tick with no reverse data: site 1's owed ack for wave 2 now
	// travels alone.
	tick()
	if tal := tally.snapshot(); tal.standaloneAcks == 0 {
		t.Error("ack with nothing to piggyback on never flushed standalone")
	}
}

// virtualReliable builds an unbatched Reliable over a lossless memnet on a
// virtual clock, so its retransmission scan runs only when the test
// advances the clock, and registers collectors for sites 1 and 2.
func virtualReliable(t *testing.T, initial time.Duration) (*Reliable, *Net, *clock.Virtual, map[ids.SiteID]*collector, *metrics.Counters, *envelopeTally) {
	t.Helper()
	tally := &envelopeTally{}
	vc := clock.NewVirtual(time.Time{})
	counters := &metrics.Counters{}
	inner := NewNet(Options{Observer: tally.observe})
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: initial,
		Clock:             vc,
		Counters:          counters,
	})
	t.Cleanup(r.Close)
	cols := map[ids.SiteID]*collector{1: {self: 1}, 2: {self: 2}}
	r.Register(1, cols[1])
	r.Register(2, cols[2])
	return r, inner, vc, cols, counters, tally
}

// scanTick advances the virtual clock by one retransmission-scan tick and
// returns once that scan has run and the network has delivered what it
// sent. The scan loop is the clock's only timer due within a tick: it is
// armed when a timer sits exactly one tick ahead, and re-arming after a
// fired tick means that scan has finished.
func scanTick(t *testing.T, r *Reliable, inner *Net, vc *clock.Virtual) {
	t.Helper()
	armed := func() {
		t.Helper()
		for i := 0; ; i++ {
			if at, ok := vc.NextTimer(); ok && at.Equal(vc.Now().Add(r.opts.Tick)) {
				return
			}
			if i == 50000 {
				t.Fatal("retransmission scan never re-armed its timer")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	armed()
	vc.Advance(r.opts.Tick)
	armed()
	quiesce(t, inner)
}

func quiesce(t *testing.T, inner *Net) {
	t.Helper()
	if err := inner.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// sendLinkState reads the sender half of the from->to link.
func sendLinkState(r *Reliable, from, to ids.SiteID) (inflight int, srtt, rttvar, rto time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sl := r.sends[linkKey{from, to}]
	return len(sl.inflight), sl.srtt, sl.rttvar, sl.rto
}

// TestReliablePiggybacksAcksUnbatched: without batching, an ack owed for
// received traffic is not sent inline but rides the next reverse send,
// which goes out as a one-item LinkBatch carrying it.
func TestReliablePiggybacksAcksUnbatched(t *testing.T) {
	r, inner, _, cols, counters, tally := virtualReliable(t, time.Minute)

	for i := uint64(1); i <= 3; i++ {
		r.Send(1, 2, ping(i))
	}
	quiesce(t, inner)
	if got := cols[2].count(); got != 3 {
		t.Fatalf("site 2 delivered %d, want 3", got)
	}
	if tal := tally.snapshot(); tal.data != 3 || tal.total != 3 {
		t.Fatalf("want 3 bare LinkData frames and nothing else, got %d frames, %d LinkData", tal.total, tal.data)
	}

	// Site 2 owes an ack for all three; its next send to site 1 carries it.
	r.Send(2, 1, ping(1))
	quiesce(t, inner)
	tal := tally.snapshot()
	if tal.batches != 1 || tal.piggybackedAcks != 1 || tal.standaloneAcks != 0 {
		t.Fatalf("reverse send: want one LinkBatch carrying the ack, got %d batches, %d piggybacked, %d standalone acks",
			tal.batches, tal.piggybackedAcks, tal.standaloneAcks)
	}
	if got := cols[1].count(); got != 1 {
		t.Fatalf("site 1 delivered %d, want 1", got)
	}
	if n, _, _, _ := sendLinkState(r, 1, 2); n != 0 {
		t.Fatalf("piggybacked ack left %d frames unacknowledged", n)
	}
	if got, piggy := counters.Get(metrics.LinkAcksSent), counters.Get(metrics.LinkAcksPiggybacked); got != 1 || piggy != 1 {
		t.Fatalf("acks sent %d, piggybacked %d; want 1 and 1", got, piggy)
	}
}

// TestReliableStandaloneAckAtNextScan: with no reverse data, the owed ack
// leaves alone at the next retransmission scan, before the sender's first
// deadline, so a lossless link never retransmits.
func TestReliableStandaloneAckAtNextScan(t *testing.T) {
	r, inner, vc, _, counters, tally := virtualReliable(t, 3*time.Millisecond)
	if r.opts.Tick >= r.opts.RetransmitInitial {
		t.Fatalf("scan tick %v not below the first deadline %v", r.opts.Tick, r.opts.RetransmitInitial)
	}

	r.Send(1, 2, ping(1))
	quiesce(t, inner)
	if tal := tally.snapshot(); tal.standaloneAcks != 0 {
		t.Fatalf("%d acks sent inline", tal.standaloneAcks)
	}
	scanTick(t, r, inner, vc)
	if tal := tally.snapshot(); tal.standaloneAcks != 1 {
		t.Fatalf("after one scan tick: %d standalone acks, want 1", tal.standaloneAcks)
	}
	if n, srtt, _, _ := sendLinkState(r, 1, 2); n != 0 || srtt != r.opts.Tick {
		t.Fatalf("after the ack: %d frames in flight and SRTT %v, want 0 and %v", n, srtt, r.opts.Tick)
	}
	// Run well past the first deadline: nothing is left to retransmit, and
	// no further ack is owed.
	for i := 0; i < 10; i++ {
		scanTick(t, r, inner, vc)
	}
	if got := counters.Get(metrics.LinkRetransmits); got != 0 {
		t.Fatalf("lossless link retransmitted %d frames", got)
	}
	if tal := tally.snapshot(); tal.standaloneAcks != 1 {
		t.Fatalf("%d standalone acks, want exactly 1", tal.standaloneAcks)
	}
}

// TestReliableDuplicateAnsweredOnTwoScans: a duplicate shows the sender
// missed an ack, so the standalone answer goes out on two successive scans
// (one lost copy then costs no further timeout), and only on two.
func TestReliableDuplicateAnsweredOnTwoScans(t *testing.T) {
	r, inner, vc, cols, counters, tally := virtualReliable(t, 3*time.Millisecond)

	r.Send(1, 2, ping(1))
	quiesce(t, inner)
	scanTick(t, r, inner, vc)
	if tal := tally.snapshot(); tal.standaloneAcks != 1 {
		t.Fatalf("first frame: %d standalone acks, want 1", tal.standaloneAcks)
	}

	// A retransmitted copy of the delivered frame arrives.
	inner.Send(1, 2, msg.LinkData{Epoch: r.Incarnation(1), Seq: 1, Payload: ping(1)})
	quiesce(t, inner)
	if got := counters.Get(metrics.LinkDupDropped); got != 1 {
		t.Fatalf("duplicates dropped %d, want 1", got)
	}
	for i, want := range []int{2, 3, 3} {
		scanTick(t, r, inner, vc)
		if tal := tally.snapshot(); tal.standaloneAcks != want {
			t.Fatalf("scan %d after the duplicate: %d standalone acks, want %d", i+1, tal.standaloneAcks, want)
		}
	}
	if got := cols[2].count(); got != 1 {
		t.Fatalf("site 2 delivered %d, want 1", got)
	}
}

// TestReliableAwaitIdleFlushesOwedAcks: AwaitIdle sends the acks owed when
// it starts to wait, so a drain does not wait for the next scan tick. The
// virtual clock never advances here, so no scan runs at all.
func TestReliableAwaitIdleFlushesOwedAcks(t *testing.T) {
	r, inner, _, _, _, tally := virtualReliable(t, 3*time.Millisecond)
	r.Send(1, 2, ping(1))
	quiesce(t, inner)

	done := make(chan error, 1)
	go func() { done <- r.AwaitIdle(time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitIdle still waiting for an ack it could have flushed")
	}
	if tal := tally.snapshot(); tal.standaloneAcks != 1 {
		t.Fatalf("%d standalone acks, want 1", tal.standaloneAcks)
	}
}

// TestReliableKarnNoSampleAfterRetransmit: an ack that covers a
// retransmitted frame takes no round-trip sample (Karn's rule), on the
// unbatched and the batched retransmit path alike; the next ack for a
// frame sent once does. The batcher's flush loop never fires (an hour of
// virtual time), so the test flushes by hand.
func TestReliableKarnNoSampleAfterRetransmit(t *testing.T) {
	for _, batch := range []int{0, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			vc := clock.NewVirtual(time.Time{})
			counters := &metrics.Counters{}
			inner := NewNet(Options{})
			r := NewReliable(inner, ReliableOptions{
				Seed:              7,
				RetransmitInitial: 3 * time.Millisecond,
				BatchMax:          batch,
				FlushInterval:     time.Hour,
				Clock:             vc,
				Counters:          counters,
			})
			defer r.Close()
			r.Register(1, &collector{self: 1})
			c2 := &collector{self: 2}
			r.Register(2, c2)

			// The first transmission is lost; the retransmission lands.
			inner.Partition(1, 2)
			r.Send(1, 2, ping(1))
			r.flushAll()
			quiesce(t, inner)
			inner.Heal(1, 2)
			for i := 0; counters.Get(metrics.LinkRetransmits) == 0; i++ {
				if i == 10 {
					t.Fatal("no retransmission within 10 scan ticks")
				}
				scanTick(t, r, inner, vc)
			}
			if got := counters.Get(metrics.LinkRetransmits); got != 1 {
				t.Fatalf("retransmitted %d frames, want 1", got)
			}
			r.flushAll() // site 2's ack
			quiesce(t, inner)
			if c2.count() != 1 {
				t.Fatalf("site 2 delivered %d, want 1", c2.count())
			}
			n, srtt, _, rto := sendLinkState(r, 1, 2)
			if n != 0 {
				t.Fatalf("%d frames still in flight", n)
			}
			if srtt != 0 || rto != r.opts.RetransmitInitial {
				t.Fatalf("ack of a retransmitted frame was sampled: SRTT %v, RTO %v", srtt, rto)
			}

			// A frame sent once and acked one tick later is the first
			// sample: SRTT = 1ms, RTTVAR = 0.5ms, and RTO = 1ms + 4·0.5ms
			// plus the receiver's ack deferral bound: one 1ms tick
			// unbatched, the hour-long flush interval (so RetransmitMax)
			// batched.
			r.Send(1, 2, ping(2))
			r.flushAll()
			quiesce(t, inner)
			scanTick(t, r, inner, vc)
			r.flushAll()
			quiesce(t, inner)
			_, srtt, rttvar, rto := sendLinkState(r, 1, 2)
			want := min(3*time.Millisecond+r.ackDelay(), r.opts.RetransmitMax)
			if srtt != time.Millisecond || rttvar != time.Millisecond/2 || rto != want {
				t.Fatalf("after one 1ms sample: SRTT %v RTTVAR %v RTO %v, want 1ms 500µs %v", srtt, rttvar, rto, want)
			}
		})
	}
}

// TestReliableRTOStaysClamped: whatever round-trip samples arrive, the
// measured deadline stays within [RetransmitInitial, RetransmitMax].
func TestReliableRTOStaysClamped(t *testing.T) {
	r := NewReliable(NewNet(Options{}), ReliableOptions{
		RetransmitInitial: 3 * time.Millisecond,
		RetransmitMax:     50 * time.Millisecond,
	})
	defer r.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	sl := r.sendLinkLocked(1, 2)
	if sl.rto != r.opts.RetransmitInitial {
		t.Fatalf("deadline before any sample %v, want %v", sl.rto, r.opts.RetransmitInitial)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		// Runs of tiny, mid-range and huge samples drive the estimator
		// into both clamps.
		var rtt time.Duration
		switch (i / 100) % 3 {
		case 0:
			rtt = time.Duration(rng.Int63n(int64(100 * time.Microsecond)))
		case 1:
			rtt = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		default:
			rtt = time.Duration(rng.Int63n(int64(time.Second)))
		}
		r.sampleRTTLocked(sl, rtt)
		if sl.rto < r.opts.RetransmitInitial || sl.rto > r.opts.RetransmitMax {
			t.Fatalf("sample %d (%v): RTO %v outside [%v, %v]", i, rtt, sl.rto, r.opts.RetransmitInitial, r.opts.RetransmitMax)
		}
	}
}

// TestReliableCrossCodecEquivalence (wire migration property): the same
// traffic pushed through the session layer over a lossy, duplicating,
// reordering memnet arrives bit-identical whether the network round-trips
// every frame through the binary codec or no codec at all. Loss forces
// retransmissions, so frames are encoded and decoded repeatedly along the
// way.
func TestReliableCrossCodecEquivalence(t *testing.T) {
	const total = 120
	mix := func(i uint64) msg.Message {
		switch i % 4 {
		case 0:
			return msg.Update{
				Removals:  []ids.ObjID{ids.ObjID(i), ids.ObjID(i * 3)},
				Distances: []msg.DistanceUpdate{{Obj: ids.ObjID(i), Distance: int(i % 17)}},
				Holds:     []ids.ObjID{ids.ObjID(i + 1)},
			}
		case 1:
			return msg.BackCall{
				Trace:     ids.TraceID{Initiator: 1, Seq: i},
				Caller:    ids.FrameID{Site: 1, Seq: i},
				Initiator: 1,
				Kind:      msg.StepRemote,
				Inref:     ids.ObjID(i),
				Outref:    ids.MakeRef(2, ids.ObjID(i*7)),
			}
		case 2:
			return msg.BackReply{
				Trace:        ids.TraceID{Initiator: 1, Seq: i},
				Caller:       ids.FrameID{Site: 1, Seq: i},
				Result:       msg.VerdictLive,
				Participants: []ids.SiteID{1, 2, ids.SiteID(i%9 + 1)},
			}
		default:
			return msg.RefTransfer{Payload: ids.MakeRef(2, ids.ObjID(i)), Pinner: 1}
		}
	}

	codecs := map[string]wire.Codec{"none": nil, "binary": wire.Binary{}}
	delivered := make(map[string][]msg.Envelope, len(codecs))
	for name, codec := range codecs {
		inner := NewNet(Options{
			DropProb:    0.25,
			DupProb:     0.15,
			ReorderProb: 0.2,
			Seed:        99,
			Codec:       codec,
		})
		r := NewReliable(inner, ReliableOptions{
			Seed:              7,
			RetransmitInitial: 2 * time.Millisecond,
			BatchMax:          4,
			Counters:          &metrics.Counters{},
		})
		c2 := &collector{self: 2}
		r.Register(1, &collector{self: 1})
		r.Register(2, c2)
		for i := uint64(1); i <= total; i++ {
			r.Send(1, 2, mix(i))
		}
		settleReliable(t, r, inner)
		delivered[name] = c2.snapshot()
		r.Close()
	}

	want := delivered["none"]
	if len(want) != total {
		t.Fatalf("codec none delivered %d, want %d", len(want), total)
	}
	for _, name := range []string{"binary"} {
		got := delivered[name]
		if len(got) != total {
			t.Fatalf("codec %s delivered %d, want %d", name, len(got), total)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("codec %s message %d differs:\n got %#v\nwant %#v", name, i, got[i], want[i])
			}
		}
	}
}
