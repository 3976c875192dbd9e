package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// tracer keeps spans in memory around the benchmark's calls into each
// layer and writes them out once, at the end, as a Chrome trace
// (chrome://tracing, Perfetto). A nil *tracer records nothing, so the
// untraced measurement pays one nil check per span.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

// span is one timed call. Spans of one op share its id; parent is the
// index of the enclosing span, or -1.
type span struct {
	name       string
	start, end time.Duration
	op, parent int
}

// maxSpans bounds the trace: a point-lookup run issues hundreds of
// thousands of ops, and the first ones already show their shape.
const maxSpans = 50000

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when not recorded).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), op: op, parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = time.Since(t.t0)
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves the spans as Chrome-trace JSON to path.
func (t *tracer) write(path string) error {
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{}
		if s.op >= 0 {
			args["op"] = s.op
		}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		cat := s.name
		if i := strings.IndexByte(s.name, '.'); i > 0 {
			cat = s.name[:i]
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
