package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; Parent is the index of the enclosing span (-1 at the
// root) and Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced path calls the same code. It is not
// safe for concurrent use: every traced loop runs on one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent int, op int64, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	total time.Duration
	count int
	each  []time.Duration
}

// selfTimes attributes to each span name its duration minus the part of
// that interval its child spans cover.
func (r *recorder) selfTimes() map[string]*layerTime {
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for i, s := range r.spans {
		self := time.Duration(s.End - s.Start - covered(children[i]))
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.total += self
		lt.count++
		lt.each = append(lt.each, self)
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, hi int64
	first := true
	for _, v := range iv {
		switch {
		case first || v[0] >= hi:
			sum += v[1] - v[0]
			hi = v[1]
			first = false
		case v[1] > hi:
			sum += v[1] - hi
			hi = v[1]
		}
	}
	return sum
}

// meanMs is the mean self time per span of the name, in milliseconds.
func (lt *layerTime) meanMs() float64 {
	if lt == nil || lt.count == 0 {
		return 0
	}
	return ms(lt.total) / float64(lt.count)
}

// perMs is the name's total self time divided by n operations.
func (lt *layerTime) perMs(n int) float64 {
	if lt == nil || n == 0 {
		return 0
	}
	return ms(lt.total) / float64(n)
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
