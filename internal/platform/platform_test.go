package platform

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
)

// TestCatalogVerifies runs the full validation suite over every builtin
// platform — the catalog-wide gate the registry's guarantee rests on.
func TestCatalogVerifies(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("catalog has %d platforms, want at least 6: %v", len(names), names)
	}
	for _, name := range names {
		b, err := Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
			continue
		}
		for _, f := range Verify(b) {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// TestCatalogSpansClasses pins the catalog's breadth: at least one
// platform per deployment class.
func TestCatalogSpansClasses(t *testing.T) {
	have := make(map[Class]int)
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		have[b.Class]++
	}
	for _, c := range []Class{Edge, Mobile, Server} {
		if have[c] == 0 {
			t.Errorf("no %s-class platform in the catalog", c)
		}
	}
}

// TestCatalogMatchesConstructors pins the Exynos catalog entries
// deep-equal to the Go constructors they are generated from. This is
// the bridge that makes resolving "exynos5422" by name byte-identical
// to the historical hard-coded default: Go's encoding/json round-trips
// float64 exactly, so the decoded bundle is the same platform.
func TestCatalogMatchesConstructors(t *testing.T) {
	cases := []struct {
		name string
		soc  *soc.Platform
		net  *thermal.Network
	}{
		{"exynos5422", soc.Exynos5422(), thermal.Exynos5422Network()},
		{"exynos5410", soc.Exynos5410(), thermal.Exynos5410Network()},
	}
	for _, tc := range cases {
		b, err := Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b.SoC, tc.soc) {
			t.Errorf("%s: catalog SoC differs from constructor — regenerate with go generate ./internal/platform", tc.name)
		}
		if !reflect.DeepEqual(b.Net, tc.net) {
			t.Errorf("%s: catalog network differs from constructor — regenerate with go generate ./internal/platform", tc.name)
		}
	}
}

// TestCatalogRoundTrip is the golden test for every builtin platform:
// Save → Load must reproduce the bundle deep-equal, and re-saving the
// loaded bundle must reproduce the embedded golden file byte-for-byte
// (so the on-disk catalog is the canonical serialization, not merely an
// acceptable one).
func TestCatalogRoundTrip(t *testing.T) {
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		rb, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load(Save): %v", name, err)
		}
		if !reflect.DeepEqual(rb, b) {
			t.Errorf("%s: Save→Load round trip is not deep-equal", name)
		}
		golden, err := catalogFS.ReadFile("catalog/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: Save output differs from the golden catalog file — regenerate with go generate ./internal/platform", name)
		}
	}
}

// Get decodes each builtin once and returns deep copies of it: mutating
// every slice and field a returned bundle reaches, from several
// goroutines at once, never reaches another Get, which stays equal to a
// fresh decode of the embedded file.
func TestGetReturnsFreshCopies(t *testing.T) {
	want := make(map[string]*Bundle)
	for _, name := range Names() {
		data, err := catalogFS.ReadFile("catalog/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = Load(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range Names() {
				a, err := Get(name)
				if err != nil {
					t.Error(err)
					return
				}
				mutate(a)
				b, err := Get(name)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(b, want[name]) {
					t.Errorf("%s: a mutation of one Get result reached another", name)
				}
			}
		}()
	}
	wg.Wait()
}

// mutate writes every field and slice element b reaches.
func mutate(b *Bundle) {
	b.Name, b.Class, b.Description = "mutated", Server, "mutated"
	b.SoC.Name, b.SoC.TripC, b.SoC.TripCapMHz = "mutated", 1, 1
	for i := range b.SoC.Clusters {
		c := &b.SoC.Clusters[i]
		c.Name, c.NumCores, c.LeakCoeff = "mutated", 99, 9
		for j := range c.OPPs {
			c.OPPs[j] = soc.OPP{FreqMHz: 1, VoltV: 9}
		}
	}
	for i := range b.Net.Nodes {
		b.Net.Nodes[i] = thermal.Node{Name: "mutated", HeatCapJ: 9}
	}
	for i := range b.Net.Links {
		b.Net.Links[i].ResCW = 9
	}
	for i := range b.Accelerators {
		b.Accelerators[i] = AcceleratorSlot{Name: "mutated", Kind: "mutated"}
	}
	b.SoC.Clusters = b.SoC.Clusters[:1]
	b.Net.Nodes = append(b.Net.Nodes, thermal.Node{Name: "extra", HeatCapJ: 1})
}

func TestGetUnknownName(t *testing.T) {
	_, err := Get("no-such-board")
	if err == nil {
		t.Fatal("Get of unknown platform succeeded")
	}
	if !strings.Contains(err.Error(), DefaultName) {
		t.Errorf("error %q does not list the builtin catalog", err)
	}
}

func TestResolve(t *testing.T) {
	// Builtin name.
	b, err := Resolve(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != DefaultName {
		t.Fatalf("Resolve(%q) returned %q", DefaultName, b.Name)
	}
	// File path.
	path := filepath.Join(t.TempDir(), "custom.json")
	custom := Default()
	custom.Name = "custom-board"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := custom.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fb, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Name != "custom-board" {
		t.Fatalf("Resolve(file) returned %q", fb.Name)
	}
	// Neither.
	if _, err := Resolve("nope-nowhere"); err == nil {
		t.Fatal("Resolve of nonexistent ref succeeded")
	}
}

func TestDefaultIsExynos5422(t *testing.T) {
	if Default().Name != "exynos5422" {
		t.Fatalf("default platform is %q", Default().Name)
	}
}

// TestValidateRejectsMismatchedPair pins the bundle-level guarantee:
// a platform whose cluster names do not resolve in the paired network
// is rejected with the simulator's sentinel, not accepted silently.
func TestValidateRejectsMismatchedPair(t *testing.T) {
	b := Default()
	b.Net = thermal.Exynos5410Network() // lacks a MaliT628 node
	err := b.Validate()
	if !errors.Is(err, sim.ErrPlatformNetMismatch) {
		t.Fatalf("Validate = %v, want ErrPlatformNetMismatch", err)
	}
}

func TestValidateRejectsDuplicateKinds(t *testing.T) {
	b := Default()
	b.SoC.Clusters = append(b.SoC.Clusters, b.SoC.Clusters[0])
	b.SoC.Clusters[len(b.SoC.Clusters)-1].Name = "A15b"
	b.Net.Nodes = append(b.Net.Nodes, thermal.Node{Name: "A15b", HeatCapJ: 1})
	b.Net.Links = append(b.Net.Links, thermal.Link{A: len(b.Net.Nodes) - 1, B: b.Net.NodeIndex("pkg"), ResCW: 5})
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "exactly one big") {
		t.Fatalf("Validate = %v, want duplicate-kind rejection", err)
	}
}

// Accelerator capacities must be finite and non-negative: catalog JSON
// cannot carry NaN or ±Inf, but a bundle built in Go can. Each error
// names the slot and the field.
func TestValidateRejectsNonFiniteAccelerators(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(a *AcceleratorSlot)
		want string
	}{
		{"TOPS NaN", func(a *AcceleratorSlot) { a.TOPS = nan }, "TOPS"},
		{"TOPS +Inf", func(a *AcceleratorSlot) { a.TOPS = inf }, "TOPS"},
		{"TOPS negative", func(a *AcceleratorSlot) { a.TOPS = -1 }, "TOPS"},
		{"PeakW NaN", func(a *AcceleratorSlot) { a.PeakW = nan }, "PeakW"},
		{"PeakW -Inf", func(a *AcceleratorSlot) { a.PeakW = -inf }, "PeakW"},
		{"PeakW +Inf", func(a *AcceleratorSlot) { a.PeakW = inf }, "PeakW"},
	}
	for _, c := range cases {
		b, err := Get("merlin-m3")
		if err != nil {
			t.Fatal(err)
		}
		c.mut(&b.Accelerators[0])
		err = b.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the bundle", c.name)
			continue
		}
		for _, w := range []string{b.Accelerators[0].Name, c.want} {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", c.name, err, w)
			}
		}
	}
}

func TestVerifyFlagsBrokenPhysics(t *testing.T) {
	// Voltage inversion in an OPP table.
	b := Default()
	big := b.SoC.Big()
	big.OPPs[len(big.OPPs)-1].VoltV = big.OPPs[0].VoltV / 2
	if fs := Verify(b); len(fs) == 0 {
		t.Error("Verify accepted a voltage-inverted OPP table")
	}

	// A node island with no path to ambient.
	b = Default()
	b.Net.Nodes = append(b.Net.Nodes, thermal.Node{Name: "island", HeatCapJ: 1})
	if fs := Verify(b); len(fs) == 0 {
		t.Error("Verify accepted a node with no path to ambient")
	} else if !strings.Contains(strings.Join(fs, "\n"), "island") {
		t.Errorf("findings do not name the island node: %v", fs)
	}

	// A trip release that full-cap steady state can never reach.
	b = Default()
	b.SoC.TripReleaseC = b.SoC.AmbientC + 0.5
	if fs := Verify(b); len(fs) == 0 {
		t.Error("Verify accepted an unreachable trip release point")
	}

	// An accelerator that draws power without a thermal node.
	b = Default()
	b.Accelerators = []AcceleratorSlot{{Name: "ghost", Kind: "NPU", PeakW: 3}}
	if fs := Verify(b); len(fs) == 0 {
		t.Error("Verify accepted a powered accelerator with no thermal node")
	}
}

func TestLoadFileErrorsCarryPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("LoadFile error %v does not carry the path", err)
	}
}
