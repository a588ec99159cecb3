package platform

import (
	"bytes"
	"embed"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The builtin catalog ships inside the binary: one JSON bundle per
// platform, validated by the catalog test suite (and `make
// platform-gate`) against the full verification rules. The two Exynos
// entries are generated from the Go constructors (see gen.go) and pinned
// deep-equal to them by golden tests, so resolving "exynos5422" through
// the catalog is byte-identical to the historical hard-coded default.
//
//go:generate go run gen.go
//go:embed catalog/*.json
var catalogFS embed.FS

// DefaultName is the catalog name of the default platform — the paper's
// evaluation board. Layers that historically hard-coded the Exynos 5422
// presets now resolve this name.
const DefaultName = "exynos5422"

// Names lists the builtin catalog in sorted order.
func Names() []string {
	entries, err := catalogFS.ReadDir("catalog")
	if err != nil {
		// The directory is embedded at compile time; an unreadable
		// catalog is a build defect, not a runtime condition.
		panic(fmt.Sprintf("platform: embedded catalog unreadable: %v", err))
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// builtins maps each catalog name to its bundle, decoded at most once per
// process.
var builtins = func() map[string]func() (*Bundle, error) {
	m := make(map[string]func() (*Bundle, error))
	for _, name := range Names() {
		m[name] = sync.OnceValues(func() (*Bundle, error) { return decodeBuiltin(name) })
	}
	return m
}()

// Has reports whether name is a builtin catalog platform.
func Has(name string) bool {
	return builtins[name] != nil
}

// Get resolves a builtin platform by catalog name. Each bundle is decoded
// once per process and every call returns a deep copy of it — callers
// own the result and may mutate it freely without aliasing other
// resolutions.
func Get(name string) (*Bundle, error) {
	decoded := builtins[name]
	if decoded == nil {
		return nil, fmt.Errorf("platform: unknown platform %q (builtin: %s)",
			name, strings.Join(Names(), ", "))
	}
	b, err := decoded()
	if err != nil {
		return nil, err
	}
	c := *b
	c.SoC, c.Net, c.Accelerators = b.SoC.Clone(), b.Net.Clone(), slices.Clone(b.Accelerators)
	return &c, nil
}

// decodeBuiltin decodes and validates the embedded bundle of a catalog
// name.
func decodeBuiltin(name string) (*Bundle, error) {
	data, err := catalogFS.ReadFile("catalog/" + name + ".json")
	if err != nil {
		return nil, err
	}
	b, err := Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("platform: builtin %q: %w", name, err)
	}
	if b.Name != name {
		return nil, fmt.Errorf("platform: builtin %q declares mismatched name %q", name, b.Name)
	}
	return b, nil
}

// Default returns the default platform (the paper's Exynos 5422 board).
func Default() *Bundle {
	b, err := Get(DefaultName)
	if err != nil {
		panic(fmt.Sprintf("platform: default catalog entry broken: %v", err))
	}
	return b
}

// Resolve interprets ref as a builtin catalog name first and a bundle
// JSON file path second — the lookup order every CLI -platform flag
// uses. A ref that is neither reports both failures.
func Resolve(ref string) (*Bundle, error) {
	if Has(ref) {
		return Get(ref)
	}
	if _, err := os.Stat(ref); err != nil {
		return nil, fmt.Errorf("platform: %q is neither a builtin platform (have %s) nor a readable file",
			ref, strings.Join(Names(), ", "))
	}
	return LoadFile(ref)
}
