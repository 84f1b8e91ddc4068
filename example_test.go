package copernicus_test

import (
	"context"
	"fmt"
	"log"

	"copernicus"
)

// ExampleCharacterize measures one (matrix, format, partition size)
// point: the dense baseline's σ is 1 by definition.
func ExampleCharacterize() {
	m := copernicus.Random(256, 0.02, 42)
	r, err := copernicus.Characterize(m, copernicus.Dense, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dense sigma = %.2f\n", r.Sigma)
	// Output: dense sigma = 1.00
}

// ExampleEngine_SweepStreamExecWith sweeps workloads × formats ×
// partition sizes on the engine's own executor, as in the README: rows
// stream out workload-major, then kernel, then partition size, then
// format, whatever the worker count.
func ExampleEngine_SweepStreamExecWith() {
	e := copernicus.NewEngine()
	e.SetWorkers(4)
	ws := []copernicus.Workload{
		{ID: "band", M: copernicus.Band(256, 8, 1)},
		{ID: "rand", M: copernicus.Random(256, 0.02, 2)},
	}
	spmv := []copernicus.KernelSpec{copernicus.DefaultKernel()}
	var rs []copernicus.Result
	err := e.SweepStreamExecWith(context.Background(), e.LocalExecutor(nil), ws, spmv,
		[]copernicus.Format{copernicus.CSR, copernicus.ELL}, []int{8, 16},
		func(r copernicus.Result) error {
			rs = append(rs, r) // rows stream out as their group completes
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rs {
		fmt.Printf("%s %v p=%d sigma=%.2f\n", r.Workload, r.Format, r.P, r.Sigma)
	}
	// Output:
	// band CSR p=8 sigma=3.03
	// band ELL p=8 sigma=1.25
	// band CSR p=16 sigma=2.26
	// band ELL p=16 sigma=1.20
	// rand CSR p=8 sigma=0.57
	// rand ELL p=8 sigma=1.25
	// rand CSR p=16 sigma=0.69
	// rand ELL p=16 sigma=1.20
}

// ExampleEncode shows a round trip through one format codec.
func ExampleEncode() {
	tile := copernicus.NewTileFromMatrix(copernicus.Diagonal(16, 1), 0, 0, 16)
	enc := copernicus.Encode(copernicus.DIA, tile)
	fmt.Printf("format=%v useful=%dB meta=%dB utilization=%.4f\n",
		enc.Kind(), enc.Footprint().UsefulBytes, enc.Footprint().MetaBytes,
		enc.Footprint().Utilization())
	// Output: format=DIA useful=64B meta=4B utilization=0.9412
}

// ExampleStats computes the Fig. 3 partition statistics.
func ExampleStats() {
	s := copernicus.Stats(copernicus.Diagonal(64, 1), 8)
	fmt.Printf("p=%d nonzero_tiles=%d row_density=%.3f\n", s.P, s.NonZeroTiles, s.RowDensity)
	// Output: p=8 nonzero_tiles=8 row_density=0.125
}

// ExampleStaticAdvice returns the paper's §8 rule of thumb for a
// workload class.
func ExampleStaticAdvice() {
	m := copernicus.Band(512, 16, 7)
	format, _, _ := copernicus.StaticAdvice(copernicus.Classify(m))
	fmt.Println(format)
	// Output: ELL
}

// ExampleSolveCG solves a PDE system with conjugate gradients over the
// modelled accelerator.
func ExampleSolveCG() {
	a := copernicus.Stencil2D(8, 8, 1)
	b := make([]float64, a.Rows)
	b[10] = 1
	mul, _, err := copernicus.AcceleratorBackend(a, copernicus.ELL, 16)
	if err != nil {
		log.Fatal(err)
	}
	_, st, err := copernicus.SolveCG(mul, b, 1e-10, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("converged:", st.Converged)
	// Output: converged: true
}
