package workload

import "fmt"

// The catalog models the eight Polybench applications of the paper's
// evaluation. Per-work-item times are calibrated so that, on the Exynos
// 5422 model, whole-NDRange execution times land in the paper's 10–65 s
// band (Fig. 5c) with the documented CPU/GPU affinities:
//
//   - 2DCONV and GEMM are strongly GPU-friendly (RMP maps them GPU-only;
//     the paper reports TEEM pays an energy overhead against RMP there);
//   - COVARIANCE/CORRELATION are balanced (the motivation case runs
//     COVARIANCE at partition 1024, an even split);
//   - MVT is memory-bound (poor frequency scaling, low activity);
//   - SYRK is compute-hot on the big cluster (the paper reports TEEM's
//     largest energy win over RMP, 47.28%, on SYRK).
//
// GEMM carries both paper codes: the running text calls it GE while
// Fig. 5(a/c) labels it GM.

// Apps returns the catalog of the eight paper applications, in the order
// of Fig. 5(a).
func Apps() []*App {
	return []*App{
		TwoDConv(), Covariance(), Gemm(), TwoMM(),
		Mvt(), Syr2k(), Syrk(), Correlation(),
	}
}

// lookup names each app's constructor by its Polybench name and short
// code, so ByName and ByShort build only the app they return.
var lookup = [...]struct {
	name, short string
	build       func() *App
}{
	{"2DCONV", "2D", TwoDConv},
	{"COVARIANCE", "CV", Covariance},
	{"GEMM", "GM", Gemm},
	{"2MM", "2M", TwoMM},
	{"MVT", "MV", Mvt},
	{"SYR2K", "S2", Syr2k},
	{"SYRK", "SR", Syrk},
	{"CORRELATION", "CR", Correlation},
}

// ByShort returns a new app with the given short code (2D, CV, GM/GE,
// 2M, MV, S2, SR, CR), or an error.
func ByShort(code string) (*App, error) {
	if code == "GE" { // the paper uses GE in text and GM in figures
		code = "GM"
	}
	for _, c := range lookup {
		if c.short == code {
			return c.build(), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown app code %q", code)
}

// ByName returns a new app with the given Polybench name, or an error.
func ByName(name string) (*App, error) {
	for _, c := range lookup {
		if c.name == name {
			return c.build(), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown app %q", name)
}

// base fills the fields shared by the whole catalog.
func base(a App) *App {
	a.WorkItems = DefaultWorkItems
	a.RefBigMHz = 2000
	a.RefLittleMHz = 1400
	a.RefGPUMHz = 600
	return &a
}

// perWI converts a target whole-NDRange execution time into the per-WI
// time that yields it: for CPU it assumes 4 big + 4 LITTLE cores at max
// frequency with the LITTLE core slower by littleRatio; for the GPU it
// assumes 6 shader cores.
func perWI(etCPU, littleRatio, etGPU, gpuEff float64) (big, little, gpu float64) {
	// rate = 4/tB + 4/(ratio·tB) = (4 + 4/ratio)/tB
	// etCPU = WI/rate → tB = etCPU·(4 + 4/ratio)/WI.
	tB := etCPU * (4 + 4/littleRatio) / DefaultWorkItems
	tG := etGPU * 6 * gpuEff / DefaultWorkItems
	return tB, littleRatio * tB, tG
}

// TwoDConv is the 2D stencil 2DCONV ("2D"): strongly GPU-friendly.
func TwoDConv() *App {
	b, l, g := perWI(55, 3.0, 22, 0.95)
	return base(App{
		Name: "2DCONV", Short: "2D", Class: "stencil",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.15, MemBoundGPU: 0.10,
		ActivityCPU: 0.75, ActivityGPU: 0.95,
		MemBytesPerWI: 18e6, GPUParallelEff: 0.95,
	})
}

// Covariance is the data-mining kernel COVARIANCE ("CV"), the motivation
// case of the paper's Fig. 1.
func Covariance() *App {
	b, l, g := perWI(48, 3.0, 70, 0.92)
	return base(App{
		Name: "COVARIANCE", Short: "CV", Class: "data mining",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.25, MemBoundGPU: 0.20,
		ActivityCPU: 0.80, ActivityGPU: 0.90,
		MemBytesPerWI: 25e6, GPUParallelEff: 0.92,
	})
}

// Correlation is the data-mining kernel CORRELATION ("CR").
func Correlation() *App {
	b, l, g := perWI(50, 3.0, 72, 0.92)
	return base(App{
		Name: "CORRELATION", Short: "CR", Class: "data mining",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.25, MemBoundGPU: 0.20,
		ActivityCPU: 0.80, ActivityGPU: 0.90,
		MemBytesPerWI: 26e6, GPUParallelEff: 0.92,
	})
}

// Gemm is the dense matrix multiply GEMM ("GM" in the figures, "GE" in the
// text): compute-dense and strongly GPU-friendly.
func Gemm() *App {
	b, l, g := perWI(64, 2.8, 28, 0.97)
	return base(App{
		Name: "GEMM", Short: "GM", Class: "linear algebra",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.10, MemBoundGPU: 0.05,
		ActivityCPU: 0.85, ActivityGPU: 1.00,
		MemBytesPerWI: 12e6, GPUParallelEff: 0.97,
	})
}

// TwoMM is the chained matrix multiply 2MM ("2M").
func TwoMM() *App {
	b, l, g := perWI(45, 2.8, 35, 0.95)
	return base(App{
		Name: "2MM", Short: "2M", Class: "linear algebra",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.12, MemBoundGPU: 0.08,
		ActivityCPU: 0.85, ActivityGPU: 0.95,
		MemBytesPerWI: 14e6, GPUParallelEff: 0.95,
	})
}

// Mvt is the matrix-vector kernel MVT ("MV"): memory-bound.
func Mvt() *App {
	b, l, g := perWI(38, 3.2, 48, 0.90)
	return base(App{
		Name: "MVT", Short: "MV", Class: "linear algebra",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.55, MemBoundGPU: 0.45,
		ActivityCPU: 0.60, ActivityGPU: 0.70,
		MemBytesPerWI: 45e6, GPUParallelEff: 0.90,
	})
}

// Syr2k is the symmetric rank-2k update SYR2K ("S2"): heavy on both sides.
func Syr2k() *App {
	b, l, g := perWI(55, 2.9, 50, 0.93)
	return base(App{
		Name: "SYR2K", Short: "S2", Class: "linear algebra",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.18, MemBoundGPU: 0.12,
		ActivityCPU: 0.90, ActivityGPU: 0.95,
		MemBytesPerWI: 20e6, GPUParallelEff: 0.93,
	})
}

// Syrk is the symmetric rank-k update SYRK ("SR"): CPU-competitive but
// power-hot on the big cluster.
func Syrk() *App {
	b, l, g := perWI(35, 2.9, 38, 0.93)
	return base(App{
		Name: "SYRK", Short: "SR", Class: "linear algebra",
		BigSecPerWI: b, LittleSecPerWI: l, GPUSecPerWI: g,
		MemBoundCPU: 0.20, MemBoundGPU: 0.12,
		ActivityCPU: 0.95, ActivityGPU: 0.90,
		MemBytesPerWI: 16e6, GPUParallelEff: 0.93,
	})
}
