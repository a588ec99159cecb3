package sim

import (
	"errors"
	"strings"
	"testing"

	"teem/internal/soc"
	"teem/internal/thermal"
)

// TestNewRejectsMismatchedPlatformNet is the regression test for the
// silent platform/network mismatch: before New cross-validated the pair,
// an Exynos 5410 platform paired with the 5422 network was accepted and
// the SGX544 cluster simply read 0 °C from the missing sensor node for
// the whole run (SensorC returns 0 for unknown names). This test fails
// against that behaviour: New must refuse the pair with the sentinel.
func TestNewRejectsMismatchedPlatformNet(t *testing.T) {
	cfg := baseConfig()
	cfg.Platform = soc.Exynos5410()       // clusters A15, A7, SGX544
	cfg.Net = thermal.Exynos5422Network() // nodes A15, A7, MaliT628, pkg
	_, err := New(cfg)
	if !errors.Is(err, ErrPlatformNetMismatch) {
		t.Fatalf("New = %v, want ErrPlatformNetMismatch", err)
	}
}

// TestResolveNodes covers the node resolver's cross-validation directly.
func TestResolveNodes(t *testing.T) {
	if _, _, err := ResolveNodes(soc.Exynos5422(), thermal.Exynos5422Network()); err != nil {
		t.Fatalf("matched pair rejected: %v", err)
	}
	if _, _, err := ResolveNodes(soc.Exynos5410(), thermal.Exynos5410Network()); err != nil {
		t.Fatalf("matched 5410 pair rejected: %v", err)
	}
	if _, _, err := ResolveNodes(soc.Exynos5410(), thermal.Exynos5422Network()); !errors.Is(err, ErrPlatformNetMismatch) {
		t.Fatalf("mismatched pair: %v, want ErrPlatformNetMismatch", err)
	}
	// A network without the required package node.
	n := thermal.Exynos5422Network()
	for i := range n.Nodes {
		if n.Nodes[i].Name == "pkg" {
			n.Nodes[i].Name = "substrate"
		}
	}
	if _, _, err := ResolveNodes(soc.Exynos5422(), n); !errors.Is(err, ErrPlatformNetMismatch) {
		t.Fatalf("missing pkg node: %v, want ErrPlatformNetMismatch", err)
	}
}

// A second big cluster used to pass New: the mapping was checked against
// the first big cluster (4 cores) while the engine indexed the last one
// (2 cores), and Run then failed with "invalid core counts". New must
// reject a platform without exactly one cluster of each kind.
func TestNewRejectsSecondBigCluster(t *testing.T) {
	cfg := baseConfig()
	cfg.Map.Big = 4
	extra := cfg.Platform.Clusters[0]
	extra.Name, extra.NumCores = "A15b", 2
	cfg.Platform.Clusters = append(cfg.Platform.Clusters, extra)
	cfg.Net.Nodes = append(cfg.Net.Nodes, thermal.Node{Name: "A15b", HeatCapJ: 1})
	cfg.Net.Links = append(cfg.Net.Links, thermal.Link{A: len(cfg.Net.Nodes) - 1, B: cfg.Net.NodeIndex("pkg"), ResCW: 5})
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "exactly one big") {
		t.Fatalf("New = %v, want a rejection of the second big cluster", err)
	}
}
