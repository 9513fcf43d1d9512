package servetrace

import (
	"fmt"
	"time"
)

// Split is the per-phase account of the acknowledged ingests (and the
// queries) a trace holds inside one measured window. Each phase slice has
// one entry per acknowledged ingest, in milliseconds; for every ingest the
// phases tile its handler time exactly:
//
//		handler = admit + apply + encode + fsync + rename + publish
//
//	  - admit: handler entry → consumer dequeue (decode, admission, queue wait)
//	  - apply: dequeue → checkpoint temp file creation (the whole AddBatch)
//	  - encode: temp file creation → its fsync (create, encode and write)
//	  - fsync: the temp file fsync plus the directory fsync
//	  - rename: temp file fsync return → directory fsync start (close, rename)
//	  - publish: directory fsync return → handler exit (snapshot, reply)
type Split struct {
	Handler, Admit, Apply, Encode, Fsync, Rename, Publish []float64
	// QueueDepth is the number of jobs still queued at each dequeue.
	QueueDepth []float64
	// CheckpointBytes and BodyBytes are, per acknowledged ingest, the
	// bytes written to the checkpoint and the bytes of the request body.
	CheckpointBytes, BodyBytes []float64
	// Fsyncs counts file and directory fsyncs of the acknowledged ingests.
	Fsyncs int
	// Query is the handler time of every successful query and trust
	// request, in milliseconds.
	Query []float64
	// GCCPUFrac is the share of the daemon's CPU time spent in GC, and
	// AllocBytes the heap bytes it allocated, between the two marks.
	GCCPUFrac  float64
	AllocBytes float64
}

// job is the consumer-side spans of one dequeued ingest.
type job struct {
	gate, depth int64
	at          map[string]int64 // first time of each event kind
	written     int64
	fsyncs      int
}

// Analyze splits the acknowledged ingests whose requests lie between the
// marks named from and to.
func Analyze(t Trace, from, to string) (Split, error) {
	var s Split
	m0, ok0 := findMark(t.Marks, from)
	m1, ok1 := findMark(t.Marks, to)
	if !ok0 || !ok1 || m1.T < m0.T {
		return s, fmt.Errorf("servetrace: marks %q..%q not found in order", from, to)
	}
	if cpu := m1.TotalCPU - m0.TotalCPU; cpu > 0 {
		s.GCCPUFrac = (m1.GCCPU - m0.GCCPU) / cpu
	}
	s.AllocBytes = float64(m1.AllocBytes - m0.AllocBytes)

	var jobs []*job
	for _, e := range t.Events {
		if e.Kind == EvGate {
			jobs = append(jobs, &job{gate: e.T, depth: e.N, at: make(map[string]int64)})
			continue
		}
		if len(jobs) == 0 {
			continue // restore-time filesystem calls
		}
		j := jobs[len(jobs)-1]
		if (e.Kind == EvSync0 || e.Kind == EvSyncDir0) && e.T <= m1.T {
			j.fsyncs++
		}
		if _, seen := j.at[e.Kind]; seen {
			continue // a later save (the drain's final one) after this job's
		}
		j.at[e.Kind] = e.T
		if e.Kind == EvSync0 {
			j.written = e.N
		}
	}

	ms := func(d int64) float64 { return float64(d) / float64(time.Millisecond) }
	for _, r := range t.Requests {
		if r.Start < m0.T || r.End > m1.T || r.Status != 200 {
			continue
		}
		switch r.Kind {
		case "query", "trust":
			s.Query = append(s.Query, ms(r.End-r.Start))
			continue
		case "ingest":
		default:
			continue
		}
		i := r.Batch - t.StartBatches
		if i < 0 || i >= len(jobs) {
			return s, fmt.Errorf("servetrace: acknowledged batch %d has no dequeued job", r.Batch)
		}
		j := jobs[i]
		for _, k := range []string{EvCreate, EvSync0, EvSync1, EvSyncDir0, EvSyncDir1} {
			if _, ok := j.at[k]; !ok {
				return s, fmt.Errorf("servetrace: batch %d is missing its %s span", r.Batch, k)
			}
		}
		s.Handler = append(s.Handler, ms(r.End-r.Start))
		s.Admit = append(s.Admit, ms(j.gate-r.Start))
		s.Apply = append(s.Apply, ms(j.at[EvCreate]-j.gate))
		s.Encode = append(s.Encode, ms(j.at[EvSync0]-j.at[EvCreate]))
		s.Fsync = append(s.Fsync, ms(j.at[EvSync1]-j.at[EvSync0]+j.at[EvSyncDir1]-j.at[EvSyncDir0]))
		s.Rename = append(s.Rename, ms(j.at[EvSyncDir0]-j.at[EvSync1]))
		s.Publish = append(s.Publish, ms(r.End-j.at[EvSyncDir1]))
		s.QueueDepth = append(s.QueueDepth, float64(j.depth))
		s.CheckpointBytes = append(s.CheckpointBytes, float64(j.written))
		s.BodyBytes = append(s.BodyBytes, float64(r.BodyBytes))
		s.Fsyncs += j.fsyncs
	}
	if len(s.Handler) == 0 {
		return s, fmt.Errorf("servetrace: no acknowledged ingest between %q and %q", from, to)
	}
	return s, nil
}

func findMark(ms []Mark, name string) (Mark, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Mark{}, false
}
