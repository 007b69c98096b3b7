package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer's public function, recorded by the
// harness around the call (the program itself is not instrumented).
//
// A side span replays part of its parent's work on the same inputs, outside
// the parent's interval: the setcover calls re-run on the matrix that
// Flow.SolveMatrix just covered, EncodeFlow re-run on the flow SaveFlow just
// wrote. Its duration stands in for that part of the parent, so it is
// subtracted from the parent's self time. A side span without a parent
// (the Engine.Solve that each traced request is compared against) is a
// separate measurement and belongs to no layer's self time.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // -1 for none
	Request int              `json:"request"`
	Name    string           `json:"name"`
	Side    bool             `json:"side,omitempty"`
	Start   time.Duration    `json:"start_ns"` // since the recorder's epoch
	End     time.Duration    `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span in memory; they are written out once the run
// ends, so the traced pass does no I/O of its own.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(request, parent int, name string, side bool) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Side: side,
		Start: time.Since(r.epoch)})
	return id
}

// end closes span id and attaches the counts the call returned.
func (r *recorder) end(id int, counts map[string]int64) {
	r.spans[id].End = time.Since(r.epoch)
	r.spans[id].Counts = counts
}

// write stores the spans as JSON in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns every span's self time: its duration, minus the part
// of its interval that its ordinary children cover (overlapping children
// count once), minus the full duration of its side children.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for _, s := range spans {
		var ivs [][2]time.Duration
		self := s.dur()
		for _, c := range children[s.ID] {
			cs := spans[c]
			if cs.Side {
				self -= cs.dur()
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		self -= unionLen(ivs)
		out[s.ID] = max(self, 0)
	}
	return out
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
