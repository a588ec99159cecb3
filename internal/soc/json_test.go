package soc

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestPlatformJSONRoundTrip(t *testing.T) {
	for _, orig := range []*Platform{Exynos5422(), Exynos5410()} {
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		loaded := new(Platform)
		if err := json.Unmarshal(data, loaded); err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		if !reflect.DeepEqual(orig, loaded) {
			t.Errorf("%s: round trip not identical", orig.Name)
		}
	}
}

// Unmarshal rejects what cannot be decoded; structurally valid but
// inconsistent platforms are Validate's (TestValidateRejectsBadPlatforms).
func TestUnmarshalPlatformRejectsBadInput(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"name":"x","clusters":[{"name":"c","kind":"weird","num_cores":1,"opps":[{"freq_mhz":100,"volt_v":1}],"cdyn_core_nf":1}],"trip_c":90,"trip_release_c":85}`,
	}
	for i, c := range cases {
		if err := json.Unmarshal([]byte(c), new(Platform)); err == nil {
			t.Errorf("case %d: accepted invalid platform", i)
		}
	}
}
