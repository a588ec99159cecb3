package thermal

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNetworkJSONRoundTrip(t *testing.T) {
	orig := Exynos5422Network()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ambient"`) {
		t.Error("ambient links should serialise by name")
	}
	loaded := new(Network)
	if err := json.Unmarshal(data, loaded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, loaded) {
		t.Error("round trip not identical")
	}
}

// Unmarshal rejects what cannot be decoded; a decodable network without
// an ambient path is Validate's (TestValidate).
func TestUnmarshalNetworkRejectsBadInput(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"nodes":[{"name":"a","heat_cap_j":1}],"links":[{"a":"zz","b":"ambient","res_cw":1}]}`,
		`{"nodes":[{"name":"a","heat_cap_j":1}],"links":[{"a":"a","b":"zz","res_cw":1}]}`,
	}
	for i, c := range cases {
		if err := json.Unmarshal([]byte(c), new(Network)); err == nil {
			t.Errorf("case %d: accepted invalid network", i)
		}
	}
}

// Unmarshal rejects a key the schema does not have, naming it, at the
// top of the network, in a node and in a link.
func TestUnmarshalNetworkRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ key, doc string }{
		{"edges", `{"nodes":[{"name":"a","heat_cap_j":1}],"links":[{"a":"a","b":"ambient","res_cw":1}],"edges":[]}`},
		{"mass_kg", `{"nodes":[{"name":"a","heat_cap_j":1,"mass_kg":2}],"links":[{"a":"a","b":"ambient","res_cw":1}]}`},
		{"res_kw", `{"nodes":[{"name":"a","heat_cap_j":1}],"links":[{"a":"a","b":"ambient","res_kw":1}]}`},
	} {
		err := json.Unmarshal([]byte(c.doc), new(Network))
		if err == nil || !strings.Contains(err.Error(), `"`+c.key+`"`) {
			t.Errorf("unknown key %s: Unmarshal = %v, want an error naming it", c.key, err)
		}
	}
}

// "ambient" names the boundary as a link endpoint, so a node may not
// take the name: the decoder would couple a link meant for that node to
// the boundary, while the same name as "a" means the node.
func TestAmbientNodeNameIsReserved(t *testing.T) {
	doc := `{"nodes":[{"name":"a","heat_cap_j":1},{"name":"ambient","heat_cap_j":1}],` +
		`"links":[{"a":"a","b":"ambient","res_cw":1},{"a":"ambient","b":"a","res_cw":1}]}`
	var n Network
	if err := json.Unmarshal([]byte(doc), &n); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), `"ambient"`) {
		t.Errorf("Validate = %v, want the reserved-name error", err)
	}
}
