package thermal

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Thermal topologies serialise like platforms: a platform bundle file
// nests the RC network as its "thermal" object, so custom networks are
// defined in JSON and loaded at runtime instead of recompiled.

type jsonLink struct {
	// A and B name nodes; B == ambientName couples A to the boundary.
	A     string  `json:"a"`
	B     string  `json:"b"`
	ResCW float64 `json:"res_cw"`
}

type jsonNetwork struct {
	Nodes []Node     `json:"nodes"`
	Links []jsonLink `json:"links"`
}

// MarshalJSON encodes the network as the "thermal" object of a platform
// bundle file (internal/platform). Link endpoints are emitted by node
// name so the format is robust to reordering. It performs no validation.
func (n *Network) MarshalJSON() ([]byte, error) {
	jn := jsonNetwork{Nodes: n.Nodes}
	for _, l := range n.Links {
		b := ambientName
		if l.B != Ambient {
			b = n.Nodes[l.B].Name
		}
		jn.Links = append(jn.Links, jsonLink{A: n.Nodes[l.A].Name, B: b, ResCW: l.ResCW})
	}
	return json.Marshal(&jn)
}

// UnmarshalJSON decodes the schema MarshalJSON writes, rejecting keys it
// does not have. Like MarshalJSON it is a pure codec: run Validate on
// untrusted input (platform.Load validates the bundle as a whole).
func (n *Network) UnmarshalJSON(data []byte) error {
	var jn jsonNetwork
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jn); err != nil {
		return fmt.Errorf("thermal: decoding network: %w", err)
	}
	nn := Network{Nodes: jn.Nodes}
	index := make(map[string]int, len(jn.Nodes))
	for i, nd := range jn.Nodes {
		index[nd.Name] = i
	}
	for _, l := range jn.Links {
		a, ok := index[l.A]
		if !ok {
			return fmt.Errorf("thermal: link endpoint %q is not a node", l.A)
		}
		b := Ambient
		if l.B != ambientName {
			bi, ok := index[l.B]
			if !ok {
				return fmt.Errorf("thermal: link endpoint %q is not a node", l.B)
			}
			b = bi
		}
		nn.Links = append(nn.Links, Link{A: a, B: b, ResCW: l.ResCW})
	}
	*n = nn
	return nil
}
