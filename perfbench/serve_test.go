package main

import (
	"testing"
	"time"
)

// TestQueryScheduleSpreadsOverIngestCycle: the query mix must not lock to
// one point of the ingest cycle. Over a run's queries, every quarter of the
// cycle gets close to a quarter of them, on every seed, and the schedule
// stays in due order.
func TestQueryScheduleSpreadsOverIngestCycle(t *testing.T) {
	l := &serveLoad{}
	period := time.Second / time.Duration(serveIngestRate)
	for _, seed := range []int64{1, 2, 20001, -7} {
		_, queries := l.openLoopShots(21*time.Second, seed)
		var quarters [4]int
		for j, q := range queries {
			if j > 0 && q.due < queries[j-1].due {
				t.Fatalf("seed %d: query %d due before query %d", seed, j, j-1)
			}
			quarters[4*(q.due%period)/period]++
		}
		for k, n := range quarters {
			if share := float64(n) / float64(len(queries)); share < 0.2 || share > 0.3 {
				t.Errorf("seed %d: quarter %d of the ingest cycle holds %.2f of the queries %v", seed, k, share, quarters)
			}
		}
	}
}
