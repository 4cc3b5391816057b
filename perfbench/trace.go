package main

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent is the index of the enclosing span, -1 for a
// rung's top-level call.
type span struct {
	name   string
	track  int // rung (or phase) the span belongs to
	start  time.Time
	end    time.Time
	parent int
	req    int64
}

// tracer keeps spans in memory and writes them out when the run ends.
// Durations are kept per span name as well, for the per-layer medians. The
// closed-loop phase records from both client goroutines, hence the mutex.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	byName map[string][]float64 // µs
	tracks map[int]string
}

// traceReqs bounds the trace file: spans of the first traceReqs requests of
// every rung are kept; the durations of all of them feed the medians.
const traceReqs = 2000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byName: map[string][]float64{}, tracks: map[int]string{}}
}

// open starts a span whose children are recorded before it ends; it
// returns the span's index, -1 when the span is not kept for the file.
func (t *tracer) open(name string, track, parent int, req int64, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if req >= traceReqs {
		return -1
	}
	t.spans = append(t.spans, span{name: name, track: track, start: start, end: start, parent: parent, req: req})
	return len(t.spans) - 1
}

// close ends span idx and records its duration under name.
func (t *tracer) close(idx int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byName[name] = append(t.byName[name], float64(end.Sub(start))/1e3)
	if idx >= 0 {
		t.spans[idx].end = end
	}
}

// add records a finished call and returns its index.
func (t *tracer) add(name string, track, parent int, req int64, start, end time.Time) int {
	idx := t.open(name, track, parent, req, start)
	t.close(idx, name, start, end)
	return idx
}

// p50 is the median duration of name in µs (NaN when never recorded).
func (t *tracer) p50(name string) float64 { return median(t.byName[name]) }

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), the format Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the kept spans, one track per rung.
func (t *tracer) chromeTrace() ([]byte, error) {
	events := make([]chromeEvent, 0, len(t.spans)+len(t.tracks))
	var ids []int
	for id := range t.tracks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]any{"name": t.tracks[id]}})
	}
	for i, s := range t.spans {
		args := map[string]any{"req": s.req, "span": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start.Sub(t.t0)) / 1e3,
			Dur:  float64(s.end.Sub(s.start)) / 1e3,
			Args: args,
		})
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

// gcMeter reads the Go runtime's cumulative CPU accounting, so a phase's
// GC share is the ratio of two deltas.
type gcMeter struct{ gc, total float64 }

func readGC() gcMeter {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var m gcMeter
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.total = s[1].Value.Float64()
	}
	return m
}

// since is the GC share of CPU between m and now.
func (m gcMeter) since() float64 {
	now := readGC()
	return ratio(now.gc-m.gc, now.total-m.total)
}

// budgetRow is one line of the per-request wall budget.
type budgetRow struct {
	Layer string  `json:"layer"`
	P50us float64 `json:"self_p50_us"`
	Share float64 `json:"share_of_loopback_p50"`
}

// traceWorkload is the traced run: it replays the workload's seed inputs
// down both ladders (the invoke ladder for the gateway path, the deploy
// ladder for the density path) so every per-layer metric is measured in
// every run; the workload's own ladder gets most of the time and supplies
// the run-validity metrics. density selects the deploy ladder as the
// workload's own; the invoke ladder then replays w (hot-invoke).
func traceWorkload(o options, w invokeWorkload, density bool) (*report, error) {
	rep := newReport()
	tr := newTracer()
	total := seconds(o.seconds)
	ownShare, otherShare := 0.8, 0.2
	var budget []budgetRow
	var err error
	if density {
		if err := deployLadder(o, rep, tr, time.Duration(ownShare*float64(total)), true); err != nil {
			return nil, err
		}
		budget, err = invokeLadder(o, w, rep, tr, time.Duration(otherShare*float64(total)), false)
	} else {
		budget, err = invokeLadder(o, w, rep, tr, time.Duration(ownShare*float64(total)), true)
		if err == nil {
			err = deployLadder(o, rep, tr, time.Duration(otherShare*float64(total)), false)
		}
	}
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(o.out, "wall budget per request (%s inputs, sequential ladder):\n", w.name)
	fmt.Fprintf(o.out, "  %-18s %12s %8s\n", "layer", "self p50 µs", "share")
	for _, b := range budget {
		fmt.Fprintf(o.out, "  %-18s %12.2f %7.1f%%\n", b.Layer, b.P50us, 100*b.Share)
	}
	trace, err := tr.chromeTrace()
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	path, err := writeOut(o.outDir, "trace-"+tag+".json", trace)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(map[string]any{"workload": o.workload, "seed": o.seed, "inputs": w.name, "budget": budget}, "", "  ")
	if err != nil {
		return nil, err
	}
	bpath, err := writeOut(o.outDir, "budget-"+tag+".json", b)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "trace: %s (%d spans), budget: %s\n", path, len(tr.spans), bpath)
	return rep, nil
}
