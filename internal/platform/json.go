package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"teem/internal/soc"
	"teem/internal/thermal"
)

// jsonBundle mirrors Bundle with explicit JSON tags. The soc and thermal
// descriptions nest through their own MarshalJSON/UnmarshalJSON codecs,
// so the SoC and its network travel as one document instead of two
// coupled ones.
type jsonBundle struct {
	Name         string            `json:"name"`
	Class        Class             `json:"class"`
	Description  string            `json:"description,omitempty"`
	SoC          *soc.Platform     `json:"soc"`
	Net          *thermal.Network  `json:"thermal"`
	Accelerators []AcceleratorSlot `json:"accelerators,omitempty"`
}

// Save writes the bundle as indented JSON after validating it.
func (b *Bundle) Save(w io.Writer) error {
	if err := b.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonBundle{
		Name:         b.Name,
		Class:        b.Class,
		Description:  b.Description,
		SoC:          b.SoC,
		Net:          b.Net,
		Accelerators: b.Accelerators,
	})
}

// Load reads and validates a platform bundle from JSON.
func Load(r io.Reader) (*Bundle, error) {
	var jb jsonBundle
	if err := json.NewDecoder(r).Decode(&jb); err != nil {
		return nil, fmt.Errorf("platform: decoding bundle: %w", err)
	}
	b := &Bundle{
		Name:         jb.Name,
		Class:        jb.Class,
		Description:  jb.Description,
		SoC:          jb.SoC,
		Net:          jb.Net,
		Accelerators: jb.Accelerators,
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
