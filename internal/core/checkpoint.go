package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"corroborate/internal/jsonw"
	"corroborate/internal/truth"
)

// Checkpoint/restore subsystem.
//
// A checkpoint is a complete snapshot of a stream's corroboration state —
// configuration, source table with the multi-value trust accumulators, and
// the decided-fact log — taken after any batch. Restoring it into a fresh
// Stream (or ShardedStream, with any shard count) continues the stream
// exactly: every subsequent AddBatch produces byte-identical output to the
// uninterrupted stream, because the trust credits are serialized as exact
// float64 round-trips and the source table preserves interning order (the
// order defines vote signatures).
//
// Wire format: a one-object JSON envelope
//
//	{"format":"corroborate/stream-checkpoint","version":1,
//	 "checksum":"<crc32c hex of the state bytes>","state":{...}}
//
// encoded compactly and deterministically (same state ⇒ same bytes).
//
// The encoder is an append writer (internal/jsonw), not encoding/json:
// every acknowledged corrod batch rewrites the whole checkpoint, and
// reflection over ~20k facts cost an order of magnitude more. It writes
// the bytes encoding/json would write for checkpointState — the struct
// the decoder reads, whose JSON tags fix field order and omitempty rules.
// Three checks hold it there: golden envelopes written by the old
// encoder (testdata/golden/checkpoint_*.json, TestCheckpointGolden), the
// old encoder kept as a test oracle (oracleCheckpoint in
// checkpoint_oracle_test.go, fuzzed by FuzzCheckpointOracle), and
// FuzzJSONAppend on the string and float appenders. Decoding stays on
// encoding/json.
//
// The decoder is strict: unknown fields, trailing data, a foreign format tag, an
// unsupported version, a checksum mismatch, or any semantic inconsistency in
// the state (credits outside [0, count], a prediction disagreeing with its
// probability under Eq. 2, a gap in the batch numbering, …) is an error —
// never a panic, and never a silently half-restored stream.

const (
	checkpointFormat  = "corroborate/stream-checkpoint"
	checkpointVersion = 1
)

type checkpointEnvelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	State    json.RawMessage `json:"state"`
}

type checkpointState struct {
	Config checkpointConfig `json:"config"`
	// DefaultTrust is the σ0(S) the trust state was initialized with; it
	// only matters once the stream has seen a batch.
	DefaultTrust float64 `json:"default_trust,omitempty"`
	// TrustDecay is the per-batch decay factor λ; absent (0) means the
	// stream runs without decay, which keeps pre-decay checkpoints and
	// decay-disabled checkpoints byte-identical.
	TrustDecay float64            `json:"trust_decay,omitempty"`
	Sources    []checkpointSource `json:"sources,omitempty"`
	Decided    []checkpointFact   `json:"decided,omitempty"`
}

type checkpointConfig struct {
	Strategy      string  `json:"strategy"`
	InitialTrust  float64 `json:"initial_trust,omitempty"`
	MaxRounds     int     `json:"max_rounds,omitempty"`
	CandidateCap  int     `json:"candidate_cap,omitempty"`
	FullGroups    bool    `json:"full_groups,omitempty"`
	FlipDeltaH    bool    `json:"flip_delta_h,omitempty"`
	SoftAbsorb    bool    `json:"soft_absorb,omitempty"`
	AnchoredTrust bool    `json:"anchored_trust,omitempty"`
	DeferBand     float64 `json:"defer_band,omitempty"`
}

// Source and fact names are arbitrary byte strings (the symbol table
// interns anything), but JSON strings must be valid UTF-8 — encoding/json
// silently rewrites invalid bytes to U+FFFD, which would corrupt the
// restored symbol table and with it every vote signature. Names therefore
// travel as a canonical field pair: valid UTF-8 in "name", anything else
// base64 in "name_b64". The decoder enforces canonical form (never both
// fields, never base64 that decodes to valid UTF-8), keeping the encoding
// deterministic and re-encode a fixed point.

type checkpointSource struct {
	Name    string  `json:"name,omitempty"`
	NameB64 string  `json:"name_b64,omitempty"`
	Credit  float64 `json:"credit"`
	Count   int     `json:"count"`
	// CountF is the decayed (fractional) evaluation mass, present exactly
	// when the stream runs with trust decay; Count stays the undecayed
	// integer tally either way.
	CountF float64 `json:"count_f,omitempty"`
}

type checkpointFact struct {
	Name        string      `json:"name,omitempty"`
	NameB64     string      `json:"name_b64,omitempty"`
	Batch       int         `json:"batch"`
	Probability float64     `json:"probability"`
	Prediction  truth.Label `json:"prediction"`
}

// decodeName rebuilds a name from the field pair, rejecting non-canonical
// encodings.
func decodeName(plain, b64, what string) (string, error) {
	if b64 == "" {
		return plain, nil
	}
	if plain != "" {
		return "", fmt.Errorf("%s carries both name and name_b64", what)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return "", fmt.Errorf("%s name_b64: %w", what, err)
	}
	if utf8.Valid(raw) {
		return "", fmt.Errorf("%s name_b64 encodes valid UTF-8; canonical form uses name", what)
	}
	return string(raw), nil
}

// Checkpoint serializes the stream's full state to w. The encoding is
// deterministic: checkpointing the same state twice produces identical
// bytes, and encode→decode→re-encode is a fixed point (FuzzCheckpoint).
// A NaN or infinite float or an invalid label in the state is an error and
// nothing is written. The state is encoded under the stream lock and
// written to w after the lock is released.
func (st *Stream) Checkpoint(w io.Writer) error {
	st.mu.Lock()
	// One buffer sized from the previous envelope, with headroom for the
	// batches absorbed since, so the state is written once and never
	// regrown. (Keeping the buffer between checkpoints in a pool saved
	// nothing in time and raised corrod's peak RSS by a third.)
	jw := jsonw.Writer{B: make([]byte, 0, st.checkpointSize+st.checkpointSize/8)}
	st.appendCheckpointLocked(&jw)
	if jw.Err == nil {
		st.checkpointSize = len(jw.B)
	}
	st.mu.Unlock()
	if jw.Err != nil {
		return fmt.Errorf("core: encoding checkpoint state: %w", jw.Err)
	}
	_, err := w.Write(jw.B)
	return err
}

// checkpointHead is the envelope up to the state object. The checksum is a
// fixed-width placeholder at checksumAt, patched in place once the state
// bytes it covers have been written behind it.
var (
	checkpointHead = fmt.Sprintf(`{"format":%q,"version":%d,"checksum":"00000000","state":`,
		checkpointFormat, checkpointVersion)
	checksumAt = strings.Index(checkpointHead, "00000000")
)

// appendCheckpointLocked appends the complete envelope, newline included:
// the head, the state object written once, then the CRC of exactly those
// state bytes patched into the head. Field order and omitempty rules are
// those of checkpointState's JSON tags, which the decoder reads; the
// golden fixtures and FuzzCheckpointOracle hold the bytes to what
// encoding/json writes for that struct.
func (st *Stream) appendCheckpointLocked(w *jsonw.Writer) {
	base := len(w.B)
	w.Raw(checkpointHead)
	stateAt := len(w.B)
	c := &st.Config
	w.Raw(`{"config":{"strategy":`)
	w.String(c.Strategy.String())
	if c.InitialTrust != 0 {
		w.Raw(`,"initial_trust":`)
		w.Float(c.InitialTrust)
	}
	if c.MaxRounds != 0 {
		w.Raw(`,"max_rounds":`)
		w.Int(c.MaxRounds)
	}
	if c.CandidateCap != 0 {
		w.Raw(`,"candidate_cap":`)
		w.Int(c.CandidateCap)
	}
	if c.FullGroups {
		w.Raw(`,"full_groups":true`)
	}
	if c.FlipDeltaH {
		w.Raw(`,"flip_delta_h":true`)
	}
	if c.SoftAbsorb {
		w.Raw(`,"soft_absorb":true`)
	}
	if c.AnchoredTrust {
		w.Raw(`,"anchored_trust":true`)
	}
	if c.DeferBand != 0 {
		w.Raw(`,"defer_band":`)
		w.Float(c.DeferBand)
	}
	w.Raw(`}`)
	if st.initDone && st.state.defaultTrust != 0 {
		w.Raw(`,"default_trust":`)
		w.Float(st.state.defaultTrust)
	}
	if st.decay != 0 {
		w.Raw(`,"trust_decay":`)
		w.Float(st.decay)
	}
	// Sources are emitted in symbol-table ID order: the interning order
	// defines vote signatures, so preserving it is what lets the restored
	// stream continue byte-identically.
	for i := 0; i < st.symtab.Len(); i++ {
		if i == 0 {
			w.Raw(`,"sources":[{`)
		} else {
			w.Raw(`,{`)
		}
		appendName(w, st.symtab.Name(uint32(i)))
		w.Raw(`"credit":`)
		w.Float(st.state.credit[i])
		w.Raw(`,"count":`)
		w.Int(st.state.count[i])
		if st.state.fcount != nil && st.state.fcount[i] != 0 {
			w.Raw(`,"count_f":`)
			w.Float(st.state.fcount[i])
		}
		w.Raw(`}`)
	}
	if st.symtab.Len() > 0 {
		w.Raw(`]`)
	}
	for i := range st.decided {
		sf := &st.decided[i]
		if i == 0 {
			w.Raw(`,"decided":[{`)
		} else {
			w.Raw(`,{`)
		}
		appendName(w, sf.Name)
		w.Raw(`"batch":`)
		w.Int(sf.Batch)
		w.Raw(`,"probability":`)
		w.Float(sf.Probability)
		w.Raw(`,"prediction":`)
		w.Label(sf.Prediction)
		w.Raw(`}`)
	}
	if len(st.decided) > 0 {
		w.Raw(`]`)
	}
	w.Raw(`}`)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(w.B[stateAt:]))
	hex.Encode(w.B[base+checksumAt:], sum[:])
	w.Raw("}\n")
}

// appendName writes a name as its canonical field pair, each present
// field followed by a comma: valid UTF-8 in "name" (omitted when empty),
// anything else base64 in "name_b64".
func appendName(w *jsonw.Writer, name string) {
	switch {
	case !utf8.ValidString(name):
		w.Raw(`"name_b64":"`)
		w.B = base64.StdEncoding.AppendEncode(w.B, []byte(name))
		w.Raw(`",`)
	case name != "":
		w.Raw(`"name":`)
		w.String(name)
		w.Raw(`,`)
	}
}

// RestoreStream reads a checkpoint and returns a fresh Stream that
// continues the checkpointed stream exactly.
func RestoreStream(r io.Reader) (*Stream, error) {
	st := NewStream()
	if err := restoreInto(st, r); err != nil {
		return nil, err
	}
	return st, nil
}

// RestoreShardedStream reads a checkpoint and returns a fresh
// ShardedStream with the given shard count. Checkpoints are
// shard-agnostic: the same checkpoint restores into any shard count (or a
// plain Stream) with byte-identical continuation.
func RestoreShardedStream(r io.Reader, shards int) (*ShardedStream, error) {
	ss := NewShardedStream(shards)
	if err := restoreInto(&ss.Stream, r); err != nil {
		return nil, err
	}
	return ss, nil
}

// restoreInto decodes, validates, and installs a checkpoint into st, which
// must be freshly constructed. Any error leaves st unusable; callers
// discard it.
func restoreInto(st *Stream, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	cs, err := decodeCheckpoint(data)
	if err != nil {
		return err
	}
	strategy, err := parseSelector(cs.Config.Strategy)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	st.Config = IncEstimate{
		Strategy:      strategy,
		InitialTrust:  cs.Config.InitialTrust,
		MaxRounds:     cs.Config.MaxRounds,
		CandidateCap:  cs.Config.CandidateCap,
		FullGroups:    cs.Config.FullGroups,
		FlipDeltaH:    cs.Config.FlipDeltaH,
		SoftAbsorb:    cs.Config.SoftAbsorb,
		AnchoredTrust: cs.Config.AnchoredTrust,
		DeferBand:     cs.Config.DeferBand,
	}
	st.decay = cs.TrustDecay
	if len(cs.Sources) > 0 {
		st.state = newTrustState(len(cs.Sources), cs.DefaultTrust)
		if st.decay != 0 {
			st.state.enableDecay(st.decay)
		}
		st.initDone = true
		// Re-intern onto the fresh symbol table in checkpoint order; the
		// assigned IDs are dense and sequential because validate() already
		// rejected duplicate names.
		for i, src := range cs.Sources {
			st.symtab.Intern(src.Name)
			st.state.credit[i] = src.Credit
			st.state.count[i] = src.Count
			if st.state.fcount != nil {
				st.state.fcount[i] = src.CountF
			}
		}
	}
	for _, cf := range cs.Decided {
		st.decided = append(st.decided, StreamFact{
			Name:        cf.Name,
			Batch:       cf.Batch,
			Probability: cf.Probability,
			Prediction:  cf.Prediction,
		})
	}
	return nil
}

// decodeCheckpoint strictly parses and validates a checkpoint.
func decodeCheckpoint(data []byte) (*checkpointState, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env checkpointEnvelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint envelope: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("core: checkpoint carries trailing data")
	}
	if env.Format != checkpointFormat {
		return nil, fmt.Errorf("core: not a stream checkpoint (format %q)", env.Format)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (this build reads %d)", env.Version, checkpointVersion)
	}
	if want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.State)); env.Checksum != want {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch (%s recorded, %s computed): corrupted state", env.Checksum, want)
	}
	sdec := json.NewDecoder(bytes.NewReader(env.State))
	sdec.DisallowUnknownFields()
	var cs checkpointState
	if err := sdec.Decode(&cs); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint state: %w", err)
	}
	if err := cs.validate(); err != nil {
		return nil, fmt.Errorf("core: invalid checkpoint: %w", err)
	}
	return &cs, nil
}

// validate enforces every invariant a live stream maintains, so a restored
// stream is indistinguishable from one that never stopped.
func (cs *checkpointState) validate() error {
	if _, err := parseSelector(cs.Config.Strategy); err != nil {
		return err
	}
	if bad01(cs.Config.InitialTrust) {
		return fmt.Errorf("initial trust %v out of [0, 1]", cs.Config.InitialTrust)
	}
	if bad01(cs.Config.DeferBand) {
		return fmt.Errorf("defer band %v out of [0, 1]", cs.Config.DeferBand)
	}
	if cs.Config.MaxRounds < 0 || cs.Config.CandidateCap < 0 {
		return fmt.Errorf("negative round or candidate bound")
	}
	if len(cs.Sources) > 0 && bad01(cs.DefaultTrust) {
		return fmt.Errorf("default trust %v out of [0, 1]", cs.DefaultTrust)
	}
	// A recorded decay factor must be a genuine λ ∈ (0, 1): SetTrustDecay
	// normalizes both off switches (0 and 1) to an absent field, so a
	// checkpoint carrying 1, a negative, or NaN was never written by this
	// encoder.
	if cs.TrustDecay != 0 && (bad01(cs.TrustDecay) || cs.TrustDecay <= 0 || cs.TrustDecay >= 1) {
		return fmt.Errorf("trust decay %v outside (0, 1)", cs.TrustDecay)
	}
	seen := make(map[string]bool, len(cs.Sources))
	for i, src := range cs.Sources {
		// Decode the canonical name pair and normalize in place: after a
		// successful validate, .Name holds the true byte string and
		// restoreInto never re-derives it.
		name, err := decodeName(src.Name, src.NameB64, fmt.Sprintf("source %d", i))
		if err != nil {
			return err
		}
		cs.Sources[i].Name, cs.Sources[i].NameB64 = name, ""
		src.Name = name
		if seen[src.Name] {
			return fmt.Errorf("source %q duplicated", src.Name)
		}
		seen[src.Name] = true
		// Every interned source has corroborated at least one fact, and a
		// credit is a sum of per-fact values in [0, 1].
		if src.Count < 1 {
			return fmt.Errorf("source %d (%q) has count %d < 1", i, src.Name, src.Count)
		}
		// The credit bound depends on the decay mode: without decay the
		// evaluation mass is the integer count; with decay both credit and
		// mass shrink by the same λ each batch (rounding is monotone, so
		// credit ≤ mass survives every scale and absorb exactly).
		bound := float64(src.Count)
		if cs.TrustDecay != 0 {
			// Zero mass is legal: λ^k underflows after enough batches, and
			// the trust falls back to the default exactly as a live stream's
			// would.
			if math.IsNaN(src.CountF) || src.CountF < 0 || src.CountF > float64(src.Count) {
				return fmt.Errorf("source %d (%q) has decayed mass %v outside [0, %d]", i, src.Name, src.CountF, src.Count)
			}
			bound = src.CountF
		} else if src.CountF != 0 {
			return fmt.Errorf("source %d (%q) carries decayed mass %v but the stream has no trust decay", i, src.Name, src.CountF)
		}
		if math.IsNaN(src.Credit) || src.Credit < 0 || src.Credit > bound {
			return fmt.Errorf("source %d (%q) has credit %v outside [0, %v]", i, src.Name, src.Credit, bound)
		}
	}
	if (len(cs.Sources) == 0) != (len(cs.Decided) == 0) {
		return fmt.Errorf("source table and decided log disagree about whether any batch ran")
	}
	prevBatch := 0
	for i, cf := range cs.Decided {
		name, err := decodeName(cf.Name, cf.NameB64, fmt.Sprintf("decided fact %d", i))
		if err != nil {
			return err
		}
		cs.Decided[i].Name, cs.Decided[i].NameB64 = name, ""
		cf.Name = name
		if bad01(cf.Probability) {
			return fmt.Errorf("decided fact %d (%q) has probability %v out of [0, 1]", i, cf.Name, cf.Probability)
		}
		if want := truth.LabelOf(cf.Probability, truth.Threshold); cf.Prediction != want {
			return fmt.Errorf("decided fact %d (%q) predicts %v but its probability %v decides %v under Eq. 2",
				i, cf.Name, cf.Prediction, cf.Probability, want)
		}
		switch {
		case i == 0 && cf.Batch != 0:
			return fmt.Errorf("decided log starts at batch %d, want 0", cf.Batch)
		case i > 0 && (cf.Batch < prevBatch || cf.Batch > prevBatch+1):
			return fmt.Errorf("decided fact %d (%q) jumps from batch %d to %d", i, cf.Name, prevBatch, cf.Batch)
		}
		prevBatch = cf.Batch
	}
	return nil
}

// bad01 reports whether x is NaN or outside the unit interval.
func bad01(x float64) bool {
	return math.IsNaN(x) || x < 0 || x > 1
}
