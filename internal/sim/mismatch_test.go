package sim

import (
	"errors"
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
