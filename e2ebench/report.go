package main

import (
	"fmt"
	"time"
)

// metric is one reported number. n is its sample count where it is a
// percentile or mean of samples (0 otherwise). Metrics with inJSON false
// are printed but left out of the JSON line: the gate counts, whose
// expected value is 0 and which the JSON reports through "correct", and
// mutator_op_us_p99, which on mixed_async follows the host too closely to
// hold any bound (README.md); the traced pass reports it as
// mutator.op_us_p99.
type metric struct {
	name   string
	unit   string
	value  float64
	n      int
	inJSON bool
}

const mib = 1 << 20

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// endToEnd computes the metrics a user of the collector sees, from an
// untraced pass.
func endToEnd(p *passResult) []metric {
	wall := p.steadyWall.Seconds()
	swept := p.all.count("localtrace.collected")
	nr, ns, nm := len(p.reclaimRounds), len(p.reclaimNs), len(p.stepNs)
	return []metric{
		{"reclaim_rounds_p50", "rounds", quantile(p.reclaimRounds, 0.5), nr, true},
		{"reclaim_rounds_p99", "rounds", quantile(p.reclaimRounds, 0.99), nr, true},
		{"reclaim_ms_p50", "ms", ms(quantile(p.reclaimNs, 0.5)), ns, true},
		{"reclaim_ms_p99", "ms", ms(quantile(p.reclaimNs, 0.99)), ns, true},
		{"round_ms_p50", "ms", ms(quantile(p.roundNs, 0.5)), len(p.roundNs), true},
		{"reclaimed_per_s", "objects/s", p.steady.count("localtrace.collected") / wall, 0, true},
		{"mutator_ops_per_s", "ops/s", float64(p.steps) / wall, 0, true},
		{"mutator_op_us_p50", "us", us(quantile(p.stepNs, 0.5)), nm, true},
		{"mutator_op_us_p99", "us", us(quantile(p.stepNs, 0.99)), nm, false},
		{"msgs_per_reclaimed", "msgs/object", ratio(p.all.count("msg.total"), swept), 0, true},
		{"wire_bytes_per_reclaimed", "bytes/object", ratio(p.all.count("wire.bytes"), swept), 0, true},
		{"live_heap_mb", "MiB", p.liveHeapBytes / mib, 0, true},
		{"setup_s", "s", quantile(p.setupS, 0.5), len(p.setupS), true},
		{"failed_ops_frac", "ratio", ratio(float64(p.failed), float64(p.steps)), p.steps, false},
		{"unsafe_sweeps", "objects", float64(p.gate.unsafeSweeps), 0, false},
		{"garbage_left", "objects", float64(p.gate.garbageLeft), 0, false},
	}
}

func (p *passResult) durations(name string) []float64 {
	return append(p.rec.durations(name), p.crec.durations(name)...)
}

func (p *passResult) selfTimes() map[string]float64 {
	self := map[string]float64{}
	p.rec.selfTimes(self)
	p.crec.selfTimes(self)
	return self
}

// perLayer computes the per-layer metrics of a traced pass; base is the
// untraced pass of the same run, for the tracing overhead.
func perLayer(p, base *passResult) []metric {
	wallNs := float64(p.steadyWall)
	rounds := float64(p.rounds)
	st, all := p.steady, p.all
	swept := all.count("localtrace.collected")
	started := all.count("backtrace.started")
	self := p.selfTimes()

	q := func(name string, qq, scale float64) (float64, int) {
		d := p.durations(name)
		return quantile(d, qq) / scale, len(d)
	}
	pm := func(name, unit, span string, qq, scale float64) metric {
		v, n := q(span, qq, scale)
		return metric{name, unit, v, n, true}
	}
	hist := func(name, unit, h string, qq float64) metric {
		v, n := st.histQuantile(h, qq)
		return metric{name, unit, v * 1e6, int(n), true}
	}
	roundSum := sum(p.durations("round"))
	localTrace := sum(p.durations("site.begin_trace")) + sum(p.durations("site.commit_trace"))
	wireBusy := p.wire.encodeNs + p.wire.decodeNs
	s := p.sink

	return []metric{
		pm("site.begin_trace_us_p50", "us", "site.begin_trace", 0.5, 1e3),
		pm("site.begin_trace_us_p99", "us", "site.begin_trace", 0.99, 1e3),
		pm("site.commit_trace_us_p50", "us", "site.commit_trace", 0.5, 1e3),
		pm("site.commit_trace_us_p99", "us", "site.commit_trace", 0.99, 1e3),
		{"site.trace_busy_frac", "ratio", ratio(localTrace, roundSum), 0, true},
		pm("site.mutator.alloc_ns_p50", "ns", "site.alloc", 0.5, 1),
		pm("site.mutator.add_ref_ns_p50", "ns", "site.add_ref", 0.5, 1),
		pm("site.mutator.remove_ref_ns_p50", "ns", "site.remove_ref", 0.5, 1),
		pm("site.mutator.send_ref_us_p50", "us", "site.send_ref", 0.5, 1e3),
		pm("site.mutator.transfer_wait_us_p50", "us", "site.transfer_wait", 0.5, 1e3),
		pm("site.mutator.transfer_wait_us_p99", "us", "site.transfer_wait", 0.99, 1e3),
		hist("site.mailbox.queue_delay_us_p50", "us", "mailbox.queue_delay_seconds", 0.5),
		hist("site.mailbox.queue_delay_us_p99", "us", "mailbox.queue_delay_seconds", 0.99),
		{"site.mailbox.depth_peak", "messages", st.gauge("mailbox.depth.peak"), 0, true},
		{"site.mailbox.backpressure_waits", "count", st.count("mailbox.backpressure.waits"), 0, true},
		{"site.mailbox.trace_queue_wait_us_mean", "us", us(ratio(float64(s.queueWait), float64(s.partSpans))), s.partSpans, true},
		{"tracer.objects_traced_per_round", "objects", ratio(float64(p.traceStats.traced), rounds), 0, true},
		{"tracer.objects_retraced_per_round", "objects", ratio(float64(p.traceStats.retraced), rounds), 0, true},
		{"tracer.outset_unions_per_round", "count", ratio(float64(p.traceStats.unions), rounds), 0, true},
		{"tracer.union_memo_hit_frac", "ratio", ratio(float64(p.traceStats.memoHits), float64(p.traceStats.unions)), 0, true},
		{"tracer.swept_per_traced", "ratio", ratio(float64(p.traceStats.collected), float64(p.traceStats.traced)), 0, true},
		{"tracer.backinfo_peak", "entries", all.gauge("backinfo.peak"), 0, true},
		pm("cluster.settle_us_p50", "us", "cluster.settle", 0.5, 1e3),
		pm("cluster.settle_us_p99", "us", "cluster.settle", 0.99, 1e3),
		pm("cluster.link_us_p50", "us", "cluster.link", 0.5, 1e3),
		{"core.traces_started", "count", started, 0, true},
		{"core.traces_per_reclaimed", "traces/object", ratio(started, swept), 0, true},
		{"core.live_verdict_frac", "ratio", ratio(all.count("backtrace.outcome.live"), started), 0, true},
		{"core.backcalls_per_trace", "msgs/trace", ratio(all.count("msg.BackCall"), started), 0, true},
		{"core.participants_per_trace", "sites", ratio(float64(s.participants), float64(s.traces)), s.traces, true},
		{"core.trace_rtt_ms_p50", "ms", ms(quantile(s.traceRTT, 0.5)), len(s.traceRTT), true},
		{"core.trace_rtt_ms_p99", "ms", ms(quantile(s.traceRTT, 0.99)), len(s.traceRTT), true},
		{"core.memo_hits", "count", all.count("backtrace.memo_hits"), 0, true},
		{"core.joined", "count", all.count("backtrace.joined"), 0, true},
		{"core.deferred", "count", all.count("backtrace.deferred"), 0, true},
		{"core.batch_size_peak", "suspects", all.gauge("backtrace.batch_size"), 0, true},
		{"core.flagged_inrefs", "count", all.count("inrefs.flagged.garbage"), 0, true},
		{"msg.total_per_round", "msgs", ratio(st.count("msg.total"), rounds), 0, true},
		{"msg.update_per_round", "msgs", ratio(st.count("msg.Update"), rounds), 0, true},
		{"msg.backcall_per_round", "msgs", ratio(st.count("msg.BackCall"), rounds), 0, true},
		{"msg.insert_per_round", "msgs", ratio(st.count("msg.Insert"), rounds), 0, true},
		{"transport.frames_per_msg", "ratio", ratio(st.count("wire.frames"), st.count("msg.total")), 0, true},
		{"transport.retransmit_per_frame", "ratio", ratio(st.count("link.retransmit"), st.count("wire.frames")), 0, true},
		{"transport.acks_per_frame", "ratio", ratio(st.count("link.acks_sent"), st.count("wire.frames")), 0, true},
		{"wire.encode_ns_p50", "ns", quantile(p.wire.encSamp, 0.5), len(p.wire.encSamp), true},
		{"wire.decode_ns_p50", "ns", quantile(p.wire.decSamp, 0.5), len(p.wire.decSamp), true},
		{"wire.bytes_per_frame", "bytes", ratio(p.wire.bytes, p.wire.frames), 0, true},
		{"wire.busy_frac", "ratio", ratio(wireBusy, wallNs), 0, true},
		{"runtime.alloc_mb_per_round", "MiB", ratio((p.rt[1].allocBytes-p.rt[0].allocBytes)/mib, rounds), 0, true},
		{"runtime.gc_cpu_frac", "ratio", ratio(p.rt[1].gcCPU-p.rt[0].gcCPU, p.rt[1].totalCPU-p.rt[0].totalCPU), 0, true},
		{"trace_overhead_frac", "ratio", ratio(quantile(p.roundNs, 0.5), quantile(base.roundNs, 0.5)) - 1, 0, true},
		{"mutator.lag_ms_max", "ms", float64(p.maxLag) / float64(time.Millisecond), 0, true},
		{"mutator.op_us_p99", "us", us(quantile(p.stepNs, 0.99)), len(p.stepNs), true},
		// The layer predictions of README.md not covered above, as shares: of
		// round time on cycle_storm (heap_churn's is site.trace_busy_frac), of
		// run wall time for the asynchronous path. The
		// asynchronous share counts wire time and the generator's transfer
		// waits, which do not overlap; mailbox waits overlap each other and
		// are reported per message instead (site.mailbox.queue_delay_*).
		{"layers.settle_commit_share_of_round", "ratio", ratio(self["cluster.settle"]+self["site.commit_trace"], roundSum), 0, true},
		{"layers.async_path_share", "ratio", ratio(wireBusy+self["site.transfer_wait"], wallNs), 0, true},
	}
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Printf("%-42s %14.4f %-13s %s\n", m.name, m.value, m.unit, n)
	}
}

// printSelfTimes prints each span's self time and its share of the
// steady-phase wall time. The aggregate rows overlap the spans: encoding
// runs inside whatever call sent the message, and mailbox waits are summed
// over messages queued at the same time.
func printSelfTimes(p *passResult) {
	wall := float64(p.steadyWall)
	self := p.selfTimes()
	fmt.Printf("# self time by layer (share of %.3f s steady-phase wall time per goroutine)\n", p.steadyWall.Seconds())
	for _, n := range sortedKeys(self) {
		fmt.Printf("%-42s %12.3f ms %8.4f\n", n, ms(self[n]), self[n]/wall)
	}
	mb := p.steady.b.Histograms["mailbox.queue_delay_seconds"].Sum - p.steady.a.Histograms["mailbox.queue_delay_seconds"].Sum
	fmt.Printf("%-42s %12.3f ms %8.4f (aggregate, nested in the spans)\n", "wire.codec", ms(p.wire.encodeNs+p.wire.decodeNs), (p.wire.encodeNs+p.wire.decodeNs)/wall)
	fmt.Printf("%-42s %12.3f ms %8.4f (aggregate, summed over messages)\n", "site.mailbox.queue_wait", mb*1e3, mb*1e9/wall)
}
