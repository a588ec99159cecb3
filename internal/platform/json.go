package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Save writes the bundle as indented JSON after validating it.
func (b *Bundle) Save(w io.Writer) error {
	if err := b.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Load reads and validates a platform bundle from JSON. A key the
// schema does not have is an error naming it, so a misspelt field cannot
// load as its zero value.
func Load(r io.Reader) (*Bundle, error) {
	b := new(Bundle)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(b); err != nil {
		return nil, fmt.Errorf("platform: decoding bundle: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// LoadFile reads and validates a platform bundle from a JSON file.
func LoadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
