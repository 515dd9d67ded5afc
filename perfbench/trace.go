package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sim"
)

// span is one driver call into a layer, in virtual time. Spans of one
// client op share req; parent is the id of the span that made the call
// (0 for an op's root span).
type span struct {
	req        int64
	parent     int32
	layer, op  string
	start, end sim.Time
}

// tracer keeps the spans of a traced run in memory. A nil tracer is the
// untraced run: begin and end do nothing and allocate nothing.
type tracer struct {
	spans []span
}

// begin opens a span and returns its id (never 0 on a live tracer).
func (t *tracer) begin(req int64, parent int32, layer, op string, now sim.Time) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{req: req, parent: parent, layer: layer, op: op, start: now, end: -1})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32, now sim.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = now
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"req":%d,"parent":%d,"layer":%q,"op":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i+1, s.req, s.parent, s.layer, s.op, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
