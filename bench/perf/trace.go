package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary: the benchmark's
// own code opens it before calling into a layer and closes it when the
// call returns. Spans live in memory and are written out when the child
// exits.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the child started
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the span that caused it; -1 for the root
	// Req identifies the request the span belongs to: the cell number on
	// the stm_* and sweep_cells workloads, the batch number on the
	// serving ones.
	Req int `json:"req"`
	// BusyNs and Calls describe an aggregate span: Calls short calls
	// (one Scheduler.Admit per transaction) made between StartNs and
	// EndNs, busy for BusyNs in total. One record per call would cost
	// more than the calls themselves.
	BusyNs int64 `json:"busy_ns,omitempty"`
	Calls  int   `json:"calls,omitempty"`
	// Wait marks time a caller spent blocked on another goroutine's
	// layer (the producer in Submit's backpressure, Close waiting for the
	// drain). It is reported as a metric but never subtracted from the
	// parent, whose time the blocking layer's own spans already cover.
	Wait bool `json:"wait,omitempty"`
}

func (s span) dur() int64 {
	if s.Calls > 0 {
		return s.BusyNs
	}
	return s.EndNs - s.StartNs
}

// tracer records spans. The producer and the Submitter's flusher
// goroutine both record, hence the lock; it is uncontended in practice.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span at time at and returns its index.
func (t *tracer) begin(name string, parent, req int, at int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: at, EndNs: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, at int64) {
	t.mu.Lock()
	t.spans[id].EndNs = at
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the durations of its direct, non-wait children. Children of one
// parent run one after another on the goroutine that blocks the parent,
// so their durations add up to the part of the parent they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 && !s.Wait {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceSummary is what the traced child reports about its spans.
type traceSummary struct {
	Spans int `json:"spans"`
	// SelfSeconds sums span self time per layer; layer "perf" is the
	// benchmark's own glue (the root span's self time) and is what the
	// coverage figure counts as unattributed.
	SelfSeconds map[string]float64 `json:"self_s"`
	// SpanSelfSeconds is the same sum per span name, for telling a
	// layer's calls apart (partmap.new from partmap.batch_apply).
	SpanSelfSeconds map[string]float64 `json:"span_self_s"`
	// CoverageFrac is the share of the root span's duration attributed
	// to a layer of the program under test.
	CoverageFrac float64 `json:"coverage_frac"`
	// TopLayers lists the layers by self time, largest first.
	TopLayers []string `json:"top_layers"`
}

func summarize(spans []span) traceSummary {
	sum := traceSummary{Spans: len(spans), SelfSeconds: map[string]float64{}, SpanSelfSeconds: map[string]float64{}}
	var root, attributed int64
	for i, self := range selfTimes(spans) {
		s := spans[i]
		if s.Wait {
			continue
		}
		sum.SelfSeconds[layerOf(s.Name)] += float64(self) / 1e9
		sum.SpanSelfSeconds[s.Name] += float64(self) / 1e9
		if s.Parent < 0 {
			root += s.dur()
		} else {
			attributed += self
		}
	}
	if root > 0 {
		sum.CoverageFrac = float64(attributed) / float64(root)
	}
	for l := range sum.SelfSeconds {
		if l != "perf" {
			sum.TopLayers = append(sum.TopLayers, l)
		}
	}
	sort.Slice(sum.TopLayers, func(a, b int) bool {
		sa, sb := sum.SelfSeconds[sum.TopLayers[a]], sum.SelfSeconds[sum.TopLayers[b]]
		if sa != sb {
			return sa > sb
		}
		return sum.TopLayers[a] < sum.TopLayers[b]
	})
	return sum
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
