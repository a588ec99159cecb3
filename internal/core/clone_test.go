package core

import (
	"testing"

	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// Clone must snapshot the model store: models profiled before the clone
// are visible in it, models profiled after — on either side — are not
// shared.
func TestManagerCloneSnapshotsModels(t *testing.T) {
	mgr, err := NewManager(soc.Exynos5422(), thermal.Exynos5422Network(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cov := workload.Covariance()
	am, err := mgr.Profile(cov)
	if err != nil {
		t.Fatal(err)
	}

	clone := mgr.Clone()
	got, ok := clone.Model(cov.Name)
	if !ok || got != am {
		t.Fatal("clone should carry the pre-clone model")
	}
	if clone.params != mgr.params {
		t.Error("clone should share the parameters")
	}
	// The clone can decide and run from the snapshot.
	if _, err := clone.Decide(cov.Name, am.ETGPUSec/2, 85); err != nil {
		t.Errorf("clone Decide: %v", err)
	}

	// Divergence after the snapshot: profiling into the original must
	// not appear in the clone, and vice versa.
	syrk := workload.Syrk()
	if _, err := mgr.Profile(syrk); err != nil {
		t.Fatal(err)
	}
	if _, ok := clone.Model(syrk.Name); ok {
		t.Error("model profiled into the original leaked into the clone")
	}
	mvt := workload.Mvt()
	if _, err := clone.Profile(mvt); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.Model(mvt.Name); ok {
		t.Error("model profiled into the clone leaked into the original")
	}
}
