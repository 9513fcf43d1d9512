package truth

import "fmt"

// Text serialization hooks. Vote and Label implement
// encoding.TextMarshaler/TextUnmarshaler so any encoder that honours the
// standard interfaces (encoding/json in particular) round-trips them in the
// paper's notation ("T"/"F"/"-", "true"/"false"/"unknown") instead of raw
// int8 codes. The core checkpoint format (internal/core/checkpoint.go)
// decodes its decided-fact log through these hooks; its append writer
// (internal/jsonw) writes the same text and fails where MarshalText fails.

// MarshalText implements encoding.TextMarshaler using the paper's notation.
// Marshaling an invalid vote is an error, never a silent mis-encode.
func (v Vote) MarshalText() ([]byte, error) {
	if !v.Valid() {
		return nil, fmt.Errorf("truth: cannot marshal invalid vote %d", int8(v))
	}
	return []byte(v.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseVote.
func (v *Vote) UnmarshalText(text []byte) error {
	parsed, err := ParseVote(string(text))
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler ("true"/"false"/"unknown").
// Marshaling an invalid label is an error, never a silent mis-encode.
func (l Label) MarshalText() ([]byte, error) {
	if !l.Valid() {
		return nil, fmt.Errorf("truth: cannot marshal invalid label %d", int8(l))
	}
	return []byte(l.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseLabel.
func (l *Label) UnmarshalText(text []byte) error {
	parsed, err := ParseLabel(string(text))
	if err != nil {
		return err
	}
	*l = parsed
	return nil
}
