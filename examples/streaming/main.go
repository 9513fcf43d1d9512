// Streaming: the incremental algorithm as an online service. Crawl
// increments arrive as batches; each batch is corroborated under the trust
// accumulated from everything seen before, and verdicts on brand-new facts
// come purely from the carried multi-value trust — no re-processing of old
// data. The second act checkpoints the stream to a byte buffer and resumes
// it in a sharded engine: restored state and shard count never change a
// verdict. The final act moves the checkpoint to disk through the
// crash-safe CheckpointSink and shows its self-healing resume: a corrupt
// checkpoint is quarantined and the service starts fresh instead of
// refusing to come up.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"corroborate"
)

func main() {
	stream := corroborate.NewStream()

	// Day 1: the first crawl increment. MenuPages marks three of
	// YellowPages' listings CLOSED; a block of listings is well backed.
	day1 := []corroborate.BatchVote{
		{Fact: "dannys grand sea palace", Source: "menupages", Vote: corroborate.Deny},
		{Fact: "dannys grand sea palace", Source: "yellowpages", Vote: corroborate.Affirm},
		{Fact: "the corner diner", Source: "menupages", Vote: corroborate.Deny},
		{Fact: "the corner diner", Source: "yellowpages", Vote: corroborate.Affirm},
		{Fact: "old harbor house", Source: "menupages", Vote: corroborate.Deny},
		{Fact: "old harbor house", Source: "yellowpages", Vote: corroborate.Affirm},
		{Fact: "blue olive bistro", Source: "menupages", Vote: corroborate.Affirm},
		{Fact: "blue olive bistro", Source: "yelp", Vote: corroborate.Affirm},
		{Fact: "lucky garden", Source: "menupages", Vote: corroborate.Affirm},
		{Fact: "lucky garden", Source: "yelp", Vote: corroborate.Affirm},
	}
	report(stream, day1, "day 1 (conflicts expose the laggard)")

	// End of day 1: snapshot the full stream state — trust accumulators,
	// source table, decided-fact log — before the service restarts.
	var snapshot bytes.Buffer
	if err := stream.Checkpoint(&snapshot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint after day 1: %d bytes\n\n", snapshot.Len())

	// Day 2 runs on a restored engine — here a sharded one. Checkpoints
	// are shard-agnostic and the shard count never changes output, so
	// this continues the day-1 stream exactly.
	restored, err := corroborate.RestoreShardedStream(&snapshot, 4)
	if err != nil {
		log.Fatal(err)
	}

	// Day 2: fresh listings only — no conflicts at all. The verdicts come
	// entirely from the trust carried over from day 1.
	day2 := []corroborate.BatchVote{
		{Fact: "silver star grill", Source: "yellowpages", Vote: corroborate.Affirm},
		{Fact: "village fork", Source: "yelp", Vote: corroborate.Affirm},
		{Fact: "grand palace", Source: "yellowpages", Vote: corroborate.Affirm},
		{Fact: "red table tavern", Source: "menupages", Vote: corroborate.Affirm},
	}
	report(restored, day2, "day 2 (restored + 4 shards; verdicts from carried trust)")

	fmt.Println("final trust:")
	trust := restored.Trust()
	names := make([]string, 0, len(trust))
	for name := range trust {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-14s %.2f\n", name, trust[name])
	}
	fmt.Printf("total: %d batches, %d facts corroborated\n\n", restored.Batches(), len(restored.Decided()))

	// Durable checkpointing: the sink fsyncs the temp file and parent
	// directory around an atomic rename, so a crash at any instant leaves
	// either the old or the new checkpoint — never a torn file.
	dir, err := os.MkdirTemp("", "corroborate-stream-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sink := corroborate.NewCheckpointSink(filepath.Join(dir, "state.json"))
	if err := sink.Save(restored); err != nil {
		log.Fatal(err)
	}
	resumed, rep, err := sink.Restore(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durable resume: resumed=%v, %d batches carried\n", rep.Resumed, resumed.Batches())

	// Self-healing: tear the checkpoint in half, as a crash of a LESS
	// careful writer might. Restore quarantines the damage and starts
	// fresh rather than blocking the service on a bad recovery point.
	raw, err := os.ReadFile(sink.Path)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(sink.Path, raw[:len(raw)/2], 0o644); err != nil {
		log.Fatal(err)
	}
	fresh, rep, err := sink.Restore(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after corruption: resumed=%v, quarantined=%s, fresh stream at batch %d\n",
		rep.Resumed, filepath.Base(rep.QuarantinedPath), fresh.Batches())
}

// engine is the batch surface shared by Stream and ShardedStream.
type engine interface {
	AddBatch([]corroborate.BatchVote) ([]corroborate.StreamFact, error)
}

func report(stream engine, batch []corroborate.BatchVote, title string) {
	out, err := stream.AddBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n", title)
	for _, f := range out {
		fmt.Printf("  %-26s %-5v (p=%.2f)\n", f.Name, f.Prediction, f.Probability)
	}
	fmt.Println()
}
