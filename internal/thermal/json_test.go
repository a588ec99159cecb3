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
