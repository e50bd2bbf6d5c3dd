package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	bt "backtrace"
	"backtrace/internal/msg"
)

// The instruments observe the program from outside: spans around calls
// into its public functions, a timing wrapper around the wire codec it is
// handed, an Observer sink, and diffs of its metrics registry. None of them
// is installed in the untraced pass except the registry diffs, which the
// program keeps regardless.

// span is one timed call recorded by the benchmark. Times are nanoseconds
// since the recorder's origin; parent is an index into the same recorder,
// or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// recorder keeps spans in memory for one goroutine. A nil recorder records
// nothing, which is how the untraced pass runs.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
}

// durations returns the durations of every span with this name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Children of one parent run on the parent's goroutine, one
// after another, so their durations do not overlap.
func (r *recorder) selfTimes(into map[string]float64) {
	if r == nil {
		return
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		into[s.Name] += float64(s.End - s.Start - child[i])
	}
}

func (r *recorder) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// timedCodec wraps the wire codec handed to the cluster and aggregates
// encode time and frame sizes. The transport decodes frames itself
// (wire.DecodeAny), never through the codec it was given, so decode cost is
// sampled here: every decodeEvery-th frame is decoded once more, off to the
// side, and timed. That extra decode is traced-pass overhead only.
type timedCodec struct {
	inner bt.WireCodec

	frames   atomic.Int64
	bytes    atomic.Int64
	encodeNs atomic.Int64
	decodeNs atomic.Int64

	mu      sync.Mutex
	encSamp []float64
	decSamp []float64
}

const (
	decodeEvery  = 8
	maxCodecSamp = 1 << 20
)

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) Encode(env *msg.Envelope, buf []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := c.inner.Encode(env, buf)
	enc := time.Since(t0)
	n := c.frames.Add(1)
	c.encodeNs.Add(int64(enc))
	if err != nil {
		return out, err
	}
	c.bytes.Add(int64(len(out) - len(buf)))
	var dec time.Duration
	if n%decodeEvery == 0 {
		t1 := time.Now()
		_, derr := c.inner.Decode(out[len(buf):])
		dec = time.Since(t1)
		if derr == nil {
			c.decodeNs.Add(int64(dec) * decodeEvery)
		}
	}
	c.mu.Lock()
	if len(c.encSamp) < maxCodecSamp {
		c.encSamp = append(c.encSamp, float64(enc))
	}
	if dec > 0 && len(c.decSamp) < maxCodecSamp {
		c.decSamp = append(c.decSamp, float64(dec))
	}
	c.mu.Unlock()
	return out, nil
}

// codecTotals is the codec's aggregate over a phase.
type codecTotals struct {
	frames, bytes, encodeNs, decodeNs float64
	encSamp, decSamp                  []float64
}

// take returns the totals since the last take and starts a new phase.
func (c *timedCodec) take() codecTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := codecTotals{
		frames:   float64(c.frames.Swap(0)),
		bytes:    float64(c.bytes.Swap(0)),
		encodeNs: float64(c.encodeNs.Swap(0)),
		decodeNs: float64(c.decodeNs.Swap(0)),
		encSamp:  c.encSamp,
		decSamp:  c.decSamp,
	}
	c.encSamp, c.decSamp = nil, nil
	return t
}

func (c *timedCodec) Decode(data []byte) (msg.Envelope, error) { return c.inner.Decode(data) }

// sink is the Observer handed to the cluster in the traced pass. Callbacks
// run under site locks, so it only appends.
type sink struct {
	mu           sync.Mutex
	traceRTT     []float64 // back-trace root span durations, ns
	participants int
	traces       int
	queueWait    time.Duration // participant-span mailbox wait
	partSpans    int
}

func (s *sink) OnEvent(bt.Event) {}

// reset starts a new phase.
func (s *sink) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceRTT, s.participants, s.traces, s.queueWait, s.partSpans = nil, 0, 0, 0, 0
}

func (s *sink) OnSpan(sp bt.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch sp.Kind {
	case bt.SpanBackTrace:
		s.traces++
		s.traceRTT = append(s.traceRTT, float64(sp.Duration()))
		s.participants += len(sp.Participants)
	case bt.SpanParticipant:
		s.partSpans++
		s.queueWait += sp.QueueWait
	}
}

// regDiff is the change of the program's metrics registry over a phase.
type regDiff struct{ a, b bt.MetricsSnapshot }

func (d regDiff) count(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

func (d regDiff) gauge(name string) float64 { return float64(d.b.Gauges[name]) }

// histQuantile interpolates quantile q of a histogram's change over the
// phase, in seconds, and returns it with the number of observations.
func (d regDiff) histQuantile(name string, q float64) (float64, int64) {
	hb, ok := d.b.Histograms[name]
	if !ok {
		return 0, 0
	}
	ha := d.a.Histograms[name]
	count := hb.Count - ha.Count
	if count <= 0 {
		return 0, 0
	}
	bucket := func(i int) int64 {
		v := hb.Buckets[i]
		if i < len(ha.Buckets) {
			v -= ha.Buckets[i]
		}
		return v
	}
	rank := q * float64(count)
	lo := 0.0
	var prev int64
	for i, ub := range hb.Bounds {
		cum := bucket(i)
		if float64(cum) >= rank {
			in := cum - prev
			if in == 0 {
				return ub, count
			}
			return lo + (ub-lo)*(rank-float64(prev))/float64(in), count
		}
		prev, lo = cum, ub
	}
	return hb.Bounds[len(hb.Bounds)-1], count
}

// runtimeStats reads the Go runtime's allocation and GC CPU totals.
type runtimeStats struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
