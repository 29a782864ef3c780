package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanRec is one recorded span.  Parent indexes the enclosing span in the
// same list, or is -1.
type spanRec struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Source string        `json:"source"` // "perfbench" or "program"
	Rank   int           `json:"rank"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
}

// recorder keeps the benchmark's own spans in memory.  A nil recorder is
// disabled: untraced runs record nothing.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []spanRec
	open  map[int][]int // per rank: indices of open spans
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), open: make(map[int][]int)}
}

func (r *recorder) clock() time.Duration { return time.Since(r.base) }

// begin opens a span on a rank and returns its index (-1 when disabled).
func (r *recorder) begin(rank int, name, layer, run string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if st := r.open[rank]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans = append(r.spans, spanRec{
		Name: name, Layer: layer, Source: "perfbench", Rank: rank,
		Start: r.clock(), End: -1, Parent: parent, Run: run,
	})
	i := len(r.spans) - 1
	r.open[rank] = append(r.open[rank], i)
	return i
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = r.clock()
	st := r.open[r.spans[i].Rank]
	r.open[r.spans[i].Rank] = st[:len(st)-1]
}

// timeline merges the benchmark's spans of one run with the program's
// tracer spans of the same run and links every span to its innermost
// enclosing span on the same rank.  Parent indexes the returned slice.
func (r *recorder) timeline(run string, tr *obs.Tracer) []spanRec {
	r.mu.Lock()
	var out []spanRec
	for _, s := range r.spans {
		if s.Run == run && s.End >= 0 {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	for rank := 0; rank < tr.NumRanks(); rank++ {
		for _, s := range tr.Spans(rank) {
			out = append(out, spanRec{
				Name: s.Name, Layer: s.Cat, Source: "program", Rank: rank,
				Start: s.Start, End: s.End, Run: run,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End // the enclosing span first
	})
	// A program span outside every benchmark span is the benchmark's own
	// barrier or output check, not measured work, and is left out.
	kept := out[:0]
	var stack []int
	for _, s := range out {
		for len(stack) > 0 {
			top := kept[stack[len(stack)-1]]
			if top.Rank == s.Rank && s.Start >= top.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		} else if s.Source == "program" {
			continue
		}
		kept = append(kept, s)
		stack = append(stack, len(kept)-1)
	}
	return kept
}

// selfTimes accumulates, per (source, layer, name), the span count, the
// total time, and the self time: a span's duration minus the part its
// direct children cover.
type selfTimes map[[3]string]*selfRow

type selfRow struct {
	count       int
	total, self time.Duration
}

func (st selfTimes) add(spans []spanRec) {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		key := [3]string{s.Source, s.Layer, s.Name}
		row := st[key]
		if row == nil {
			row = &selfRow{}
			st[key] = row
		}
		row.count++
		row.total += s.End - s.Start
		row.self += s.End - s.Start - child[i]
	}
}

func (st selfTimes) write(w io.Writer, title string) error {
	keys := make([][3]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [3]string) int {
		if c := cmp.Compare(st[b].self, st[a].self); c != 0 {
			return c
		}
		return strings.Compare(strings.Join(a[:], "/"), strings.Join(b[:], "/"))
	})
	bw := bufio.NewWriter(w)
	layers := map[string]time.Duration{}
	var names []string
	for _, k := range keys {
		if _, ok := layers[k[1]]; !ok {
			names = append(names, k[1])
		}
		layers[k[1]] += st[k].self
	}
	slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(layers[b], layers[a]) })
	fmt.Fprintf(bw, "%s\n%-12s %12s\n", title, "layer", "self_s")
	for _, name := range names {
		fmt.Fprintf(bw, "%-12s %12.6f\n", name, layers[name].Seconds())
	}
	fmt.Fprintf(bw, "\n%-10s %-12s %-28s %8s %12s %12s\n", "source", "layer", "span", "count", "total_s", "self_s")
	for _, k := range keys {
		row := st[k]
		fmt.Fprintf(bw, "%-10s %-12s %-28s %8d %12.6f %12.6f\n", k[0], k[1], k[2], row.count, row.total.Seconds(), row.self.Seconds())
	}
	return bw.Flush()
}

// writePerfetto writes spans in the Chrome trace-event JSON format, which
// ui.perfetto.dev and chrome://tracing open directly: one track per rank,
// complete ("X") events carrying source, layer, run and parent.
func writePerfetto(path string, spans []spanRec, ranks int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans)+ranks)
	for r := 0; r < ranks; r++ {
		events = append(events, event{Name: "thread_name", Ph: "M", Tid: r, Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}})
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Tid: s.Rank,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"source": s.Source, "run": s.Run, "parent": s.Parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
