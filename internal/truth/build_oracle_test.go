package truth

import "testing"

// Four facts and forty sources: a fact's run of log entries can exceed
// insertionCutoff, so both of Build's per-fact sorts are exercised.
const oracleFacts, oracleSources = 4, 40

// buildOracle resolves a vote log the way Build promises to, with a map:
// each (fact, source) pair keeps its last write, and Absent erases it.
func buildOracle(log [][3]int) map[[2]int]Vote {
	last := make(map[[2]int]Vote)
	for _, e := range log {
		k := [2]int{e[0], e[1]}
		if v := Vote(e[2]); v == Absent {
			delete(last, k)
		} else {
			last[k] = v
		}
	}
	return last
}

// checkAgainstOracle compares every fact's and source's posting list and
// the vote count of d with the oracle's.
func checkAgainstOracle(t *testing.T, d *Dataset, want map[[2]int]Vote) {
	t.Helper()
	if d.NumVotes() != len(want) {
		t.Fatalf("NumVotes = %d, want %d", d.NumVotes(), len(want))
	}
	for f := 0; f < oracleFacts; f++ {
		var exp []SourceVote
		for s := 0; s < oracleSources; s++ {
			if v, ok := want[[2]int{f, s}]; ok {
				exp = append(exp, SourceVote{Source: s, Vote: v})
			}
		}
		got := d.VotesOnFact(f)
		if len(got) != len(exp) {
			t.Fatalf("VotesOnFact(%d) = %v, want %v", f, got, exp)
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("VotesOnFact(%d) = %v, want %v", f, got, exp)
			}
		}
	}
	for s := 0; s < oracleSources; s++ {
		var exp []FactVote
		for f := 0; f < oracleFacts; f++ {
			if v, ok := want[[2]int{f, s}]; ok {
				exp = append(exp, FactVote{Fact: f, Vote: v})
			}
		}
		got := d.VotesBySource(s)
		if len(got) != len(exp) {
			t.Fatalf("VotesBySource(%d) = %v, want %v", s, got, exp)
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("VotesBySource(%d) = %v, want %v", s, got, exp)
			}
		}
	}
}

// FuzzBuild checks Build against a map-based last-writer-wins oracle. Each
// three input bytes are one Vote call (fact, source, value in T/F/Absent);
// the builder is built halfway through the log and again at its end, so
// the second Build also proves the first left the builder usable.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 0, 3, 2, 1, 3, 1, 0, 3, 0})
	// One fact voted by every source in descending order, then re-voted
	// and partly tombstoned: runs far past the insertion-sort cutoff.
	var long []byte
	for s := oracleSources - 1; s >= 0; s-- {
		long = append(long, 2, byte(s), 1)
	}
	for s := 0; s < oracleSources; s += 3 {
		long = append(long, 2, byte(s), byte(s%3))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder()
		for s := 0; s < oracleSources; s++ {
			b.Source(string(rune('A' + s)))
		}
		for fi := 0; fi < oracleFacts; fi++ {
			b.Fact(string(rune('a' + fi)))
		}
		var log [][3]int
		for ; len(data) >= 3; data = data[3:] {
			log = append(log, [3]int{int(data[0]) % oracleFacts, int(data[1]) % oracleSources, int(data[2]) % 3})
		}
		half := len(log) / 2
		for i, e := range log {
			if i == half {
				checkAgainstOracle(t, b.Build(), buildOracle(log[:half]))
			}
			b.Vote(e[0], e[1], Vote(e[2]))
		}
		checkAgainstOracle(t, b.Build(), buildOracle(log))
	})
}
