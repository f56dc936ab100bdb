package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the program.
type span struct {
	name   string
	layer  string
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	parent int32 // index of the enclosing span, -1 for an op's root
	op     int32
}

// tracer records spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced ops pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of unfinished spans (one goroutine per tracer)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(op int, layer, name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, layer: layer, start: time.Since(t.epoch), parent: parent, op: int32(op)})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned (spans nest, so it is the innermost).
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTime sums each layer's self time over every span of the given
// tracers: a span's duration minus the part covered by its child spans.
func selfTime(ts ...*tracer) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			out[s.layer] += s.end - s.start - child[i]
		}
	}
	return out
}

// writeSpans writes every span as one tab-separated line: tracer (client
// or run index), op id, span id, parent id, layer, name, start and end in
// nanoseconds since the tracer's epoch.
func writeSpans(path string, ts ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\top\tspan\tparent\tlayer\tname\tstart_ns\tend_ns")
	for ti, t := range ts {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\n", ti, s.op, i, s.parent, s.layer, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedLayers returns the layer names of a self-time map in a stable order.
func sortedLayers(m map[string]time.Duration) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
