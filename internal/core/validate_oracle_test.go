package core

import (
	"fmt"
	"maps"
	"testing"

	"corroborate/internal/truth"
)

// voteKey identifies one (fact, source) slot of a batch for duplicate
// detection.
type voteKey struct {
	fact, source string
}

// validateBatch is the map-based batch validator the stream used before it
// validated on interned IDs, kept as the oracle for AddBatch's rejections:
// empty batches, votes carrying an unknown truth value (anything but T/F),
// and duplicate (fact, source) votes, each reported at the first offending
// vote in input order.
func validateBatch(votes []BatchVote) error {
	if len(votes) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	seen := make(map[voteKey]struct{}, len(votes))
	for _, v := range votes {
		if !v.Vote.Valid() || v.Vote == truth.Absent {
			return fmt.Errorf("core: batch vote on %q by %q carries unknown truth value %v", v.Fact, v.Source, v.Vote)
		}
		k := voteKey{fact: v.Fact, source: v.Source}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("core: duplicate vote on %q by %q in batch", v.Fact, v.Source)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// fuzzBatch decodes three bytes per vote: a fact out of five, a source out
// of four (s1 is already known to the stream) and a vote value in [-3, 3],
// where only 1 (T) and 2 (F) are acceptable.
func fuzzBatch(data []byte) []BatchVote {
	var votes []BatchVote
	for ; len(data) >= 3; data = data[3:] {
		votes = append(votes, BatchVote{
			Fact:   fmt.Sprintf("f%d", data[0]%5),
			Source: fmt.Sprintf("s%d", data[1]%4),
			Vote:   truth.Vote(int8(data[2]) % 4),
		})
	}
	return votes
}

// FuzzAddBatchValidate checks AddBatch's validation against the oracle: the
// stream accepts exactly the batches the oracle accepts, rejects the rest
// with the oracle's error text, and a rejected batch leaves Trust, Batches
// and Decided as they were.
func FuzzAddBatchValidate(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 1, 1},
		{0, 1, 1, 1, 2, 2, 2, 3, 1},
		{0, 1, 1, 0, 1, 2},          // duplicate
		{0, 0, 1, 1, 1, 0},          // absent
		{0, 0, 1, 1, 1, 3},          // invalid
		{0, 2, 1, 0, 2, 2, 1, 1, 9}, // duplicate before invalid
		{0, 2, 1, 1, 1, 7, 0, 2, 2}, // invalid before duplicate
		{1, 1, 1, 0, 2, 1, 1, 1, 2, 0, 2, 2, 3, 2, 0}, // absent after duplicate
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStream()
		if _, err := st.AddBatch([]BatchVote{{Fact: "base", Source: "s1", Vote: truth.Affirm}}); err != nil {
			t.Fatal(err)
		}
		preTrust, preDecided := st.Trust(), len(st.Decided())
		votes := fuzzBatch(data)
		want := validateBatch(votes)
		_, err := st.AddBatch(votes)
		if want == nil {
			if err != nil {
				t.Fatalf("AddBatch(%v) = %v, oracle accepts", votes, err)
			}
			return
		}
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("AddBatch(%v) = %v, oracle rejects with %q", votes, err, want)
		}
		if st.Batches() != 1 || len(st.Decided()) != preDecided {
			t.Fatalf("rejected batch moved the stream to %d batches, %d decided", st.Batches(), len(st.Decided()))
		}
		if got := st.Trust(); !maps.Equal(got, preTrust) {
			t.Fatalf("rejected batch moved trust from %v to %v", preTrust, got)
		}
	})
}
