package platform

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// defaultVariant returns the default catalog file with edit applied to
// its generic JSON form.
func defaultVariant(tb testing.TB, edit func(doc map[string]any)) []byte {
	data, err := catalogFS.ReadFile("catalog/" + DefaultName + ".json")
	if err != nil {
		tb.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		tb.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// field returns the object at path in a generic JSON document; an int
// step indexes an array.
func field(doc map[string]any, path ...any) map[string]any {
	var v any = doc
	for _, p := range path {
		switch p := p.(type) {
		case string:
			v = v.(map[string]any)[p]
		case int:
			v = v.([]any)[p]
		}
	}
	return v.(map[string]any)
}

// kindEdits set a cluster's kind to each form Load must refuse: a
// missing or null kind leaves the zero ClusterKind, which Validate
// rejects as unknown, another string fails UnmarshalText and a number is
// not text.
var kindEdits = []struct {
	name string
	edit func(c map[string]any)
}{
	{"missing", func(c map[string]any) { delete(c, "kind") }},
	{"null", func(c map[string]any) { c["kind"] = nil }},
	{"unknown", func(c map[string]any) { c["kind"] = "huge" }},
	{"number", func(c map[string]any) { c["kind"] = 1 }},
}

// Load rejects a cluster whose kind is missing, null or not a kind name,
// with an error about its kind, whichever cluster it is: were the zero
// kind big, a missing kind on the big cluster would load and one on
// another cluster would fail as a second big one.
func TestLoadRejectsMissingOrUnknownKind(t *testing.T) {
	for i := range Default().SoC.Clusters {
		for _, k := range kindEdits {
			data := defaultVariant(t, func(doc map[string]any) { k.edit(field(doc, "soc", "clusters", i)) })
			if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "kind") {
				t.Errorf("cluster %d, %s kind: Load = %v, want a kind error", i, k.name, err)
			}
		}
	}
}

// misspeltTripCap is the default catalog file with its trip_cap_mhz key
// misspelt, which a lenient decoder would load as a 0 MHz hardware cap.
func misspeltTripCap(tb testing.TB) []byte {
	return defaultVariant(tb, func(doc map[string]any) {
		soc := field(doc, "soc")
		soc["trip_cap_mhzz"] = soc["trip_cap_mhz"]
		delete(soc, "trip_cap_mhz")
	})
}

// Load rejects a key the schema does not have, naming it, in the bundle,
// its soc section and its thermal section, and a bundle without a trip
// cap in the big cluster's range; every catalog bundle still loads.
func TestLoadIsStrict(t *testing.T) {
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"misspelt trip cap", `"trip_cap_mhzz"`, misspeltTripCap(t)},
		{"unknown bundle key", `"vendor"`, defaultVariant(t, func(doc map[string]any) { doc["vendor"] = "x" })},
		{"unknown thermal key", `"edges"`, defaultVariant(t, func(doc map[string]any) { field(doc, "thermal")["edges"] = []any{} })},
		{"unknown node key", `"mass_kg"`, defaultVariant(t, func(doc map[string]any) { field(doc, "thermal", "nodes", 0)["mass_kg"] = 1 })},
		{"missing trip cap", "trip cap 0 MHz", defaultVariant(t, func(doc map[string]any) { delete(field(doc, "soc"), "trip_cap_mhz") })},
		{"trip cap above range", "trip cap 2100 MHz", defaultVariant(t, func(doc map[string]any) { field(doc, "soc")["trip_cap_mhz"] = 2100 })},
	} {
		if _, err := Load(bytes.NewReader(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load = %v, want an error naming %s", c.name, err, c.want)
		}
	}
	for _, name := range Names() {
		data, err := catalogFS.ReadFile("catalog/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Errorf("catalog %s: %v", name, err)
		}
	}
}

// FuzzPlatformLoad fuzzes the bundle decoder, seeded with every catalog
// file and with the default one carrying a cluster of each refused kind,
// a link to an unknown node and a misspelt trip_cap_mhz key. Load must not panic, and a bundle it
// accepts must save, load again deep-equal and save again to the same
// bytes. "accelerators": [] decodes to a non-nil empty slice but saves
// as omitted, so an empty slot list is compared as nil.
func FuzzPlatformLoad(f *testing.F) {
	for _, name := range Names() {
		data, err := catalogFS.ReadFile("catalog/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, k := range kindEdits {
		f.Add(defaultVariant(f, func(doc map[string]any) { k.edit(field(doc, "soc", "clusters", 0)) }))
	}
	f.Add(defaultVariant(f, func(doc map[string]any) { field(doc, "thermal", "links", 0)["b"] = "nowhere" }))
	f.Add(misspeltTripCap(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved, resaved bytes.Buffer
		if err := b.Save(&saved); err != nil {
			t.Fatalf("saving an accepted bundle: %v", err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("Load rejects what Save wrote: %v\n%s", err, saved.Bytes())
		}
		if len(b.Accelerators) == 0 {
			b.Accelerators = nil
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("Save→Load is not deep-equal:\n%s", saved.Bytes())
		}
		if err := again.Save(&resaved); err != nil {
			t.Fatalf("saving a reloaded bundle: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("saved form is not canonical:\n%s\nsaves again as\n%s", saved.Bytes(), resaved.Bytes())
		}
	})
}
