package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded from
// the benchmark's own files, around calls into a layer's public
// functions; spans inside the program are a later change. A leaf span
// usually covers a chunk of N calls, because one clock read costs as
// much as the cheaper calls it would time.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused it, -1 for a root
	N      int    `json:"n"`      // calls (or operations) the span covers
}

// tracer keeps spans in memory and writes them out at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id, n int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].N = n
}

// selfTime is a span name's summed self time (duration minus the part
// its child spans cover) and the calls it covered.
type selfTime struct {
	Ns    int64 `json:"self_ns"`
	N     int   `json:"n"`
	Spans int   `json:"spans"`
}

func (s selfTime) perCall() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Ns) / float64(s.N)
}

func (t *tracer) selfTimes() map[string]selfTime {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]selfTime)
	for i, s := range t.spans {
		st := out[s.Name]
		st.Ns += s.End - s.Start - children[i]
		st.N += s.N
		st.Spans++
		out[s.Name] = st
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
