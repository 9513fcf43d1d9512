package main

import (
	"fmt"
	"os"

	"corroborate/internal/core"
	"corroborate/internal/synth"
)

// The long-lived tenant's scenario: 10-fact batches voted on by 8 honest
// sources. The first preloadBatches batches become the seeded checkpoint
// the daemon resumes from; the measured ingests continue the same
// scenario, so fact names (b%03d-f%05d, keyed by batch index) never
// repeat. The scenario length is fixed, not derived from the run length,
// so one seed always yields the same batches.
const (
	preloadBatches  = 2000
	serveFacts      = 10
	serveSources    = 8
	scenarioBatches = preloadBatches + 12000
)

func serveScenario(seed int64) (*synth.ScenarioWorld, error) {
	return synth.GenerateScenario(synth.ScenarioConfig{
		Batches:       scenarioBatches,
		FactsPerBatch: serveFacts,
		HonestSources: serveSources,
		Seed:          seed,
	})
}

// batchVotes converts one scenario batch to stream input.
func batchVotes(b synth.ScenarioBatch) []core.BatchVote {
	votes := make([]core.BatchVote, len(b.Votes))
	for i, v := range b.Votes {
		votes[i] = core.BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
	}
	return votes
}

// writePreload absorbs the scenario's first preloadBatches batches into a
// stream configured as corrod configures a tenant (one shard), saves it
// through the crash-safe CheckpointSink at path, and returns the
// checkpoint bytes. This is the state the daemon would hold after
// acknowledging those batches over HTTP, built in seconds instead of
// minutes.
func writePreload(w *synth.ScenarioWorld, path string) ([]byte, error) {
	if len(w.Batches) < preloadBatches {
		return nil, fmt.Errorf("scenario has %d batches, preload needs %d", len(w.Batches), preloadBatches)
	}
	st := core.NewShardedStream(1)
	for i := 0; i < preloadBatches; i++ {
		if _, err := st.AddBatch(batchVotes(w.Batches[i])); err != nil {
			return nil, fmt.Errorf("preload batch %d: %w", i, err)
		}
	}
	if err := core.NewCheckpointSink(path).Save(st); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}
